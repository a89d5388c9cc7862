module Machine = Spin_machine.Machine
module Mmu = Spin_machine.Mmu
module Cpu = Spin_machine.Cpu
module Addr = Spin_machine.Addr
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher

type context = {
  id : int;
  owner : string;
  mmu_ctx : Mmu.context;
  mutable regions : Virt_addr.region list;
  mutable live : bool;
}

type fault = {
  ctx : context;
  va : int;
  access : Mmu.access;
}

type costs = {
  map_service : int;
  protect_base : int;
  protect_per_page : int;
  dirty_query : int;
  fault_classify : int;
}

let default_costs = {
  map_service = 300;
  protect_base = 1850;
  protect_per_page = 113;
  dirty_query = 230;
  fault_classify = 500;
}

type stats = {
  faults_not_present : int;
  faults_bad_address : int;
  faults_protection : int;
  invalidations : int;
}

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  costs : costs;
  page_not_present : (fault, unit) Dispatcher.event;
  bad_address : (fault, unit) Dispatcher.event;
  protection_fault : (fault, unit) Dispatcher.event;
  contexts_tbl : (int, context) Hashtbl.t;
  rmap : (int, (context * int) list ref) Hashtbl.t;  (* pfn -> mappings *)
  mutable s_np : int;
  mutable s_bad : int;
  mutable s_prot : int;
  mutable s_inval : int;
}

let declare_fault_event dispatcher name =
  (* Default implementation: an unhandled fault is simply counted by
     the raiser; real policy comes from handlers. *)
  Dispatcher.declare dispatcher ~name ~owner:"Translation"
    ~combine:(fun _ -> ()) (fun (_ : fault) -> ())

let create ?(costs = default_costs) machine dispatcher phys =
  let t = {
    machine; tracer = Trace.of_clock machine.Machine.clock; costs;
    page_not_present = declare_fault_event dispatcher "Translation.PageNotPresent";
    bad_address = declare_fault_event dispatcher "Translation.BadAddress";
    protection_fault = declare_fault_event dispatcher "Translation.ProtectionFault";
    contexts_tbl = Hashtbl.create 16;
    rmap = Hashtbl.create 256;
    s_np = 0; s_bad = 0; s_prot = 0; s_inval = 0;
  } in
  (* The translation service ultimately invalidates any mappings to a
     reclaimed page (paper, section 4.1). *)
  Phys_addr.add_invalidate phys (fun page ->
    let run = Phys_addr.page_run page in
    for pfn = run.Phys_addr.first_pfn
      to run.Phys_addr.first_pfn + run.Phys_addr.npages - 1 do
      match Hashtbl.find_opt t.rmap pfn with
      | None -> ()
      | Some entries ->
        List.iter
          (fun (ctx, vpn) ->
            if ctx.live then begin
              Mmu.unmap t.machine.Machine.mmu ctx.mmu_ctx ~vpn;
              t.s_inval <- t.s_inval + 1
            end)
          !entries;
        Hashtbl.remove t.rmap pfn
    done);
  t

let page_not_present t = t.page_not_present
let bad_address t = t.bad_address
let protection_fault t = t.protection_fault

let charge t c = Clock.charge t.machine.Machine.clock c

let create_context t ~owner =
  charge t t.costs.map_service;
  let mmu_ctx = Mmu.create_context t.machine.Machine.mmu in
  let ctx = { id = Mmu.context_id mmu_ctx; owner; mmu_ctx;
              regions = []; live = true } in
  Hashtbl.replace t.contexts_tbl ctx.id ctx;
  ctx

let destroy_context t ctx =
  if ctx.live then begin
    ctx.live <- false;
    Mmu.destroy_context t.machine.Machine.mmu ctx.mmu_ctx;
    Hashtbl.remove t.contexts_tbl ctx.id;
    (* Drop reverse-map entries pointing at this context. *)
    Hashtbl.iter
      (fun _ entries ->
        entries := List.filter (fun (c, _) -> c.id <> ctx.id) !entries)
      t.rmap
  end

let context_id ctx = ctx.id

let context_owner ctx = ctx.owner

let attach_region ctx region =
  if not (List.mem region ctx.regions) then
    ctx.regions <- region :: ctx.regions

let detach_region ctx region =
  ctx.regions <- List.filter (fun r -> r <> region) ctx.regions

let rmap_add t pfn ctx vpn =
  let entries =
    match Hashtbl.find_opt t.rmap pfn with
    | Some e -> e
    | None -> let e = ref [] in Hashtbl.replace t.rmap pfn e; e in
  entries := (ctx, vpn) :: !entries

let rmap_remove t pfn ctx vpn =
  match Hashtbl.find_opt t.rmap pfn with
  | None -> ()
  | Some entries ->
    entries := List.filter (fun (c, v) -> not (c.id = ctx.id && v = vpn)) !entries

let map_one t ctx ~va page ~index prot =
  charge t t.costs.map_service;
  let run = Phys_addr.page_run page in
  if index < 0 || index >= run.Phys_addr.npages then
    invalid_arg "Translation.map_one: frame index out of run";
  let vpn = Addr.vpn_of_va va in
  let pfn = run.Phys_addr.first_pfn + index in
  (* Replace any previous mapping of this vpn. *)
  (match Mmu.lookup ctx.mmu_ctx ~vpn with
   | Some pte -> rmap_remove t pte.Mmu.pfn ctx vpn
   | None -> ());
  Mmu.map t.machine.Machine.mmu ctx.mmu_ctx ~vpn ~pfn ~prot;
  rmap_add t pfn ctx vpn

let add_mapping t ctx vaddr page prot =
  let region = Virt_addr.region vaddr in
  let run = Phys_addr.page_run page in
  let n = Virt_addr.npages region in
  if n <> run.Phys_addr.npages then
    invalid_arg "Translation.add_mapping: region and run sizes differ";
  attach_region ctx region;
  for i = 0 to n - 1 do
    map_one t ctx ~va:(region.Virt_addr.va + (i * Addr.page_size)) page ~index:i prot
  done

let remove_mapping t ctx vaddr =
  charge t t.costs.map_service;
  let region = Virt_addr.region vaddr in
  for i = 0 to Virt_addr.npages region - 1 do
    let vpn = Addr.vpn_of_va region.Virt_addr.va + i in
    (match Mmu.lookup ctx.mmu_ctx ~vpn with
     | Some pte -> rmap_remove t pte.Mmu.pfn ctx vpn
     | None -> ());
    Mmu.unmap t.machine.Machine.mmu ctx.mmu_ctx ~vpn
  done;
  detach_region ctx region

let examine_mapping t ctx ~va =
  charge t t.costs.dirty_query;
  Mmu.lookup ctx.mmu_ctx ~vpn:(Addr.vpn_of_va va)
  |> Option.map (fun pte -> pte.Mmu.prot)

let protect t ctx ~va ~npages prot =
  charge t t.costs.protect_base;
  let vpn0 = Addr.vpn_of_va va in
  let changed = ref 0 in
  for i = 0 to npages - 1 do
    charge t t.costs.protect_per_page;
    if Mmu.protect t.machine.Machine.mmu ctx.mmu_ctx ~vpn:(vpn0 + i) ~prot then
      incr changed
  done;
  !changed

let is_dirty t ctx ~va =
  charge t t.costs.dirty_query;
  match Mmu.lookup ctx.mmu_ctx ~vpn:(Addr.vpn_of_va va) with
  | Some pte -> pte.Mmu.modified
  | None -> false

let is_referenced t ctx ~va =
  charge t t.costs.dirty_query;
  match Mmu.lookup ctx.mmu_ctx ~vpn:(Addr.vpn_of_va va) with
  | Some pte -> pte.Mmu.referenced
  | None -> false

let in_region ctx va =
  List.exists
    (fun r -> va >= r.Virt_addr.va && va < r.Virt_addr.va + r.Virt_addr.bytes)
    ctx.regions

let mark_fault t f kind =
  let tr = t.tracer in
  if Trace.on tr then
    Trace.instant tr ~cat:"vm" ~name:kind
      ~args:[ ("va", Printf.sprintf "0x%x" f.va);
              ("ctx", string_of_int f.ctx.id);
              ("owner", f.ctx.owner) ] ()

let handle_trap t trap =
  match trap with
  | Cpu.Mem_fault { va; access; fault } ->
    charge t t.costs.fault_classify;
    (* The fault context is the MMU context of the faulting CPU. *)
    (match Cpu.context t.machine.Machine.cpu with
     | None -> false
     | Some mmu_ctx ->
       (match Hashtbl.find_opt t.contexts_tbl (Mmu.context_id mmu_ctx) with
        | None -> false
        | Some ctx ->
          let f = { ctx; va; access } in
          (match fault with
           | Mmu.Protection_violation ->
             t.s_prot <- t.s_prot + 1;
             mark_fault t f "protection_fault";
             Dispatcher.raise_default t.protection_fault () f
           | Mmu.Page_not_present | Mmu.Bad_address ->
             if in_region ctx va then begin
               t.s_np <- t.s_np + 1;
               mark_fault t f "page_not_present";
               Dispatcher.raise_default t.page_not_present () f
             end else begin
               t.s_bad <- t.s_bad + 1;
               mark_fault t f "bad_address";
               Dispatcher.raise_default t.bad_address () f
             end);
          true))
  | Cpu.Syscall _ | Cpu.Illegal _ -> false

let mmu_context ctx = ctx.mmu_ctx

let contexts t = Hashtbl.length t.contexts_tbl

let stats t = {
  faults_not_present = t.s_np;
  faults_bad_address = t.s_bad;
  faults_protection = t.s_prot;
  invalidations = t.s_inval;
}
