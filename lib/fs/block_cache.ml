module Machine = Spin_machine.Machine
module Disk = Spin_machine.Disk_dev
module Intr = Spin_machine.Intr
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Lru = Spin_dstruct.Lru
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Phys_addr = Spin_vm.Phys_addr

let blocks_per_page = Addr.page_size / Disk.block_size

(* One disk request in flight, keyed by its first block: [count]
   blocks, read or written. *)
type pending = {
  count : int;
  reading : bool;
  mutable waiters : Spin_sched.Strand.t list;
  mutable data : Bytes.t option;
  mutable complete : bool;
}

(* One physical page caches a [blocks_per_page]-aligned group of
   blocks; [valid] is the bitmask of slots actually filled. *)
type entry = {
  page : Phys_addr.page;
  mutable valid : int;
}

type t = {
  machine : Machine.t;
  sched : Sched.t;
  disk : Disk.t;
  phys : Phys_addr.t;
  owner : string;
  cache : (int, entry) Lru.t;             (* block group -> page *)
  pending : (int, pending) Hashtbl.t;     (* block -> in-flight I/O + waiters *)
  mutable hits : int;
  mutable misses : int;
  mutable reclaims : int;
  mutable degraded : int;
}

let coldest_page t =
  match Lru.coldest t.cache with
  | Some (_, e) -> e.page
  | None -> assert false (* handler guarded on a non-empty cache *)

(* The reclamation protocol chose one of our pages; drop whatever
   entry held it (the service frees the frames itself). *)
let forget t page =
  let key = ref None in
  Lru.iter (fun k e -> if Capability.equal e.page page then key := Some k)
    t.cache;
  match !key with
  | Some k ->
    Lru.remove t.cache k;                 (* no on_evict: page is going *)
    t.reclaims <- t.reclaims + 1
  | None -> ()

let create ?(capacity_blocks = 2048) ?(owner = "BlockCache") ~phys
    machine sched disk =
  let capacity_pages = max 1 (capacity_blocks / blocks_per_page) in
  let t = {
    machine; sched; disk; phys; owner;
    cache =
      Lru.create
        ~on_evict:(fun _ e -> Phys_addr.deallocate phys e.page)
        ~capacity:capacity_pages ();
    pending = Hashtbl.create 32;
    hits = 0; misses = 0; reclaims = 0; degraded = 0;
  } in
  Intr.register machine.Machine.intr ~line:(Disk.line disk) (fun () ->
    let rec drain () =
      match Disk.take_completion disk with
      | None -> ()
      | Some completion ->
        let block, data =
          match completion with
          | Disk.Read_done { block; data; _ } -> block, Some data
          | Disk.Write_done { block; _ } -> block, None in
        (match Hashtbl.find_opt t.pending block with
         | Some p ->
           Hashtbl.remove t.pending block;
           p.data <- data;
           p.complete <- true;
           List.iter (Sched.unblock sched) p.waiters
         | None -> ());
        drain () in
    drain ());
  (* Volunteer under memory pressure: when the chosen candidate is
     already one of our pages, substitute the coldest one instead so
     the hot end of the cache survives. *)
  ignore
    (Dispatcher.install_exn (Phys_addr.reclaim_event phys)
       ~installer:owner
       ~guard:(fun candidate ->
         Lru.length t.cache > 0
         && (match Phys_addr.page_owner candidate with
             | Some o -> String.equal o owner
             | None -> false))
       (fun _candidate -> coldest_page t));
  Phys_addr.add_invalidate phys (forget t);
  t

(* Wakeups can be spurious (e.g. the caller is a protocol thread that
   network interrupts also unblock): wait for completion. *)
let await t p =
  p.waiters <- Sched.self t.sched :: p.waiters;
  while not p.complete do
    Sched.block_current t.sched
  done

(* [io] raises on a bad request before anything is registered; its
   completion cannot arrive before we wait. *)
let submit t block ~count ~reading io =
  io ();
  let p = { count; reading; waiters = []; data = None; complete = false } in
  Hashtbl.replace t.pending block p;
  await t p;
  p.data

(* Single-flight per first block: a read joins an in-flight read of
   the same run instead of overwriting its registration (which left
   every waiter but the last blocked forever — the lost wakeup the
   schedule fuzzer finds), and each joiner gets its own copy. Any other
   in-flight I/O there, a write or a run of another length, is waited
   out; then the read asks again. *)
let rec disk_read t block ~count =
  match Hashtbl.find_opt t.pending block with
  | None ->
    Option.get
      (submit t block ~count ~reading:true (fun () ->
         Disk.submit_read t.disk ~block ~count))
  | Some p when p.reading && p.count = count ->
    await t p;
    Bytes.copy (Option.get p.data)
  | Some p ->
    await t p;
    disk_read t block ~count

(* A write never joins: it waits out whatever I/O is in flight on its
   first block, then submits its own data. *)
let rec disk_write t block data =
  match Hashtbl.find_opt t.pending block with
  | Some p ->
    await t p;
    disk_write t block data
  | None ->
    ignore
      (submit t block ~count:(Bytes.length data / Disk.block_size)
         ~reading:false (fun () -> Disk.submit_write t.disk ~block data))

let group_of block = block / blocks_per_page
let slot_of block = block mod blocks_per_page
let slot_off block = slot_of block * Disk.block_size

(* After a miss's disk wait: put [data] in the group's page, or in a
   fresh one; under hopeless pressure serve uncached. *)
let cache_block t block data =
  let group = group_of block in
  (* Re-check after the wait: a concurrent reader of the same group
     may have cached it while we slept, and adding a second page would
     evict the first with the slots it already holds. *)
  match Lru.find t.cache group with
  | Some e when Capability.is_valid e.page ->
    Phys_addr.touch t.phys e.page;
    Phys_addr.fill t.phys e.page ~off:(slot_off block) data;
    e.valid <- e.valid lor (1 lsl slot_of block)
  | Some _ | None ->
    (match Phys_addr.allocate t.phys ~owner:t.owner ~bytes:Addr.page_size with
     | page ->
       Phys_addr.touch t.phys page;
       Phys_addr.fill t.phys page ~off:(slot_off block) data;
       Lru.add t.cache group { page; valid = 1 lsl slot_of block }
     | exception Phys_addr.Out_of_memory -> t.degraded <- t.degraded + 1)

let read t ~block =
  let group = group_of block in
  let bit = 1 lsl slot_of block in
  let miss () =
    t.misses <- t.misses + 1;
    disk_read t block ~count:1 in
  match Lru.find t.cache group with
  | Some e when Capability.is_valid e.page ->
    if e.valid land bit <> 0 then begin
      t.hits <- t.hits + 1;
      Phys_addr.touch t.phys e.page;
      (* The hand-off copy out of cache memory — the only charge. *)
      Phys_addr.read_bytes t.phys e.page ~off:(slot_off block)
        ~len:Disk.block_size
    end
    else begin
      (* The page is resident but this slot was never filled. Reclaim
         or eviction may take the page during the disk wait. *)
      let data = miss () in
      if Capability.is_valid e.page then begin
        Phys_addr.touch t.phys e.page;
        Phys_addr.fill t.phys e.page ~off:(slot_off block) data;
        e.valid <- e.valid lor bit
      end
      else cache_block t block data;
      data
    end
  | Some _ ->
    (* Lost the page behind our back; treat as a cold miss. *)
    Lru.remove t.cache group;
    let data = miss () in
    cache_block t block data;
    data
  | None ->
    let data = miss () in
    cache_block t block data;
    data

let read_uncached ?(count = 1) t ~block =
  t.misses <- t.misses + count;
  disk_read t block ~count

let write t ~block data =
  let len = Bytes.length data in
  if len = 0 || len mod Disk.block_size <> 0 then
    invalid_arg "Block_cache.write: not whole blocks";
  disk_write t block data;
  (* Write-through: refresh whichever slots of the run are resident. *)
  let count = len / Disk.block_size in
  let rec refresh i =
    if i < count then begin
      let b = block + i in
      let group = group_of b in
      let n = min (count - i) (blocks_per_page - slot_of b) in
      (match Lru.peek t.cache group with
       | Some e when Capability.is_valid e.page ->
         let chunk =
           if n = count then data
           else Bytes.sub data (i * Disk.block_size) (n * Disk.block_size) in
         Phys_addr.fill t.phys e.page ~off:(slot_off b) chunk;
         e.valid <- e.valid lor (((1 lsl n) - 1) lsl slot_of b)
       | Some _ -> Lru.remove t.cache group
       | None -> ());
      refresh (i + n)
    end in
  refresh 0

let flush t =
  (* [Lru.clear] skips the eviction callback; return the pages by
     hand. *)
  Lru.iter (fun _ e -> Phys_addr.deallocate t.phys e.page) t.cache;
  Lru.clear t.cache

let stats t =
  { Cache_stats.hits = t.hits;
    misses = t.misses;
    bytes_cached = Lru.length t.cache * Addr.page_size;
    reclaims = t.reclaims }

let degraded t = t.degraded
