module Lru = Spin_dstruct.Lru
module Addr = Spin_machine.Addr
module Capability = Spin_core.Capability
module Dispatcher = Spin_core.Dispatcher
module Phys_addr = Spin_vm.Phys_addr

(* A cached file: its bytes spread over single (non-contiguous)
   physical pages, one per 8 KB chunk, so pressure never needs a
   contiguous run to refill the cache. *)
type entry = {
  pages : Phys_addr.page array;
  size : int;
}

type t = {
  fs : Simple_fs.t;
  phys : Phys_addr.t;
  owner : string;
  large_threshold : int;
  capacity_bytes : int;
  cache : (string, entry) Lru.t;
  gens : (string, int) Hashtbl.t;         (* name -> invalidations so far *)
  mutable bytes_held : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable large_count : int;
  mutable reclaim_count : int;
  mutable degraded_count : int;
}

let entry_bytes e = Array.length e.pages * Addr.page_size

let dealloc_entry t e = Array.iter (Phys_addr.deallocate t.phys) e.pages

let coldest_page t =
  match Lru.coldest t.cache with
  | Some (_, e) -> e.pages.(0)
  | None -> assert false (* handler guarded on a non-empty cache *)

(* One of our pages is being reclaimed: the whole entry it belonged
   to goes (the service frees the chosen page; siblings go back by
   hand). *)
let forget t page =
  let found = ref None in
  Lru.iter
    (fun k e ->
      if Array.exists (fun p -> Capability.equal p page) e.pages then
        found := Some (k, e))
    t.cache;
  match !found with
  | None -> ()
  | Some (k, e) ->
    t.bytes_held <- t.bytes_held - entry_bytes e;
    Array.iter
      (fun p ->
        if not (Capability.equal p page) then Phys_addr.deallocate t.phys p)
      e.pages;
    Lru.remove t.cache k;                 (* no on_evict *)
    t.reclaim_count <- t.reclaim_count + 1

let create ?(capacity_bytes = 4 * 1024 * 1024) ?(large_threshold = 64 * 1024)
    ?(owner = "FileCache") ~phys fs =
  let rec t =
    lazy
      { fs; phys; owner; large_threshold; capacity_bytes;
        cache =
          Lru.create
            ~on_evict:(fun _ e ->
              let self = Lazy.force t in
              self.bytes_held <- self.bytes_held - entry_bytes e;
              dealloc_entry self e)
            ~capacity:4096 ();
        gens = Hashtbl.create 64;
        bytes_held = 0; hit_count = 0; miss_count = 0; large_count = 0;
        reclaim_count = 0; degraded_count = 0 } in
  let t = Lazy.force t in
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

let drop t name e =
  t.bytes_held <- t.bytes_held - entry_bytes e;
  dealloc_entry t e;
  Lru.remove t.cache name

let evict_to_budget t =
  let rec loop () =
    if t.bytes_held > t.capacity_bytes then
      match Lru.coldest t.cache with
      | Some (k, e) -> drop t k e; loop ()
      | None -> () in
  loop ()

(* Take pages for [data] and insert it; under hopeless pressure give
   back whatever we got and stay uncached. *)
let try_insert t ~name data =
  let size = Bytes.length data in
  let n = max 1 (Addr.round_up_pages size) in
  let got = Array.make n None in
  match
    for i = 0 to n - 1 do
      got.(i) <-
        Some (Phys_addr.allocate t.phys ~owner:t.owner ~bytes:Addr.page_size)
    done
  with
  | () ->
    let pages = Array.map Option.get got in
    Array.iteri
      (fun i p ->
        Phys_addr.touch t.phys p;
        let off = i * Addr.page_size in
        let chunk = min Addr.page_size (size - off) in
        if chunk > 0 then
          Phys_addr.fill t.phys p ~off:0 (Bytes.sub data off chunk))
      pages;
    let e = { pages; size } in
    Lru.add t.cache name e;
    t.bytes_held <- t.bytes_held + entry_bytes e;
    evict_to_budget t
  | exception Phys_addr.Out_of_memory ->
    Array.iter
      (function Some p -> Phys_addr.deallocate t.phys p | None -> ())
      got;
    t.degraded_count <- t.degraded_count + 1

(* Assemble a hit: the charged copy out of cache pages is the hand-off
   to the requesting domain. *)
let read_out t e =
  let out = Bytes.create e.size in
  Array.iteri
    (fun i p ->
      let off = i * Addr.page_size in
      let chunk = min Addr.page_size (e.size - off) in
      if chunk > 0 then
        Bytes.blit (Phys_addr.read_bytes t.phys p ~off:0 ~len:chunk) 0
          out off chunk;
      Phys_addr.touch t.phys p)
    e.pages;
  out

let generation t name =
  match Hashtbl.find t.gens name with
  | g -> g
  | exception Not_found -> 0

let fetch t ~name =
  (* Taken before any disk wait: see [refetch]. *)
  let gen = generation t name in
  if not (Simple_fs.exists t.fs ~name) then None
  else begin
    let size = Simple_fs.size t.fs ~name in
    let refetch () =
      t.miss_count <- t.miss_count + 1;
      let data = Simple_fs.read ~cached:false t.fs ~name in
      (* An invalidate that landed while we waited on the disk may
         belong to a rewrite our read predates: serve these bytes, but
         do not cache them past that invalidate. *)
      if generation t name = gen then try_insert t ~name data;
      Some data in
    if size > t.large_threshold then begin
      (* Large: never cached, read around the buffer cache too. *)
      t.large_count <- t.large_count + 1;
      Some (Simple_fs.read ~cached:false t.fs ~name)
    end else
      match Lru.find t.cache name with
      | Some e when Array.for_all Capability.is_valid e.pages ->
        t.hit_count <- t.hit_count + 1;
        Some (read_out t e)
      | Some e ->
        (* Lost a page behind our back: re-fetch. *)
        drop t name e;
        refetch ()
      | None -> refetch ()
  end

let invalidate t ~name =
  Hashtbl.replace t.gens name (generation t name + 1);
  match Lru.peek t.cache name with
  | Some e -> drop t name e
  | None -> ()

let stats t =
  { Cache_stats.hits = t.hit_count;
    misses = t.miss_count;
    bytes_cached = t.bytes_held;
    reclaims = t.reclaim_count }

let large_bypasses t = t.large_count

let degraded t = t.degraded_count
