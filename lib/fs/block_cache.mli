(** The buffer cache: synchronous block I/O for strand-context code,
    with an LRU cache of recently used blocks held in physical pages.

    Cached data lives in {!Spin_vm.Phys_addr.page} capabilities, one
    8 KB page per aligned group of blocks, so the cache participates
    in the reclamation protocol: under memory pressure it volunteers
    its coldest page (when one of its own pages was picked anyway),
    and a reclaimed page simply turns the next read of its blocks
    into a miss. Copies are charged only at the hand-off from cache
    memory to the caller.

    Reads and writes block the calling strand on the disk when they
    miss; cached reads cost only the memory copy. Writes are
    write-through (the cache never holds dirty data), which keeps the
    web-server experiment's "double buffering" story honest: caching
    happens either here or in the file cache, and both can be turned
    off. *)

type t

val create :
  ?capacity_blocks:int ->
  ?owner:string ->
  phys:Spin_vm.Phys_addr.t ->
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Spin_machine.Disk_dev.t ->
  t
(** Default capacity: 2048 blocks (1 MB of pages). Registers the
    disk's completion interrupt handler, a volunteer handler on the
    physical service's [Reclaim] event, and an invalidate callback.
    [owner] names this cache's page allocations (default
    ["BlockCache"]). *)

val read : t -> block:int -> Bytes.t
(** One block; a private copy. Must run in strand context on a miss. *)

val read_uncached : ?count:int -> t -> block:int -> Bytes.t
(** [count] blocks (default 1) from [block] on, in one disk request,
    bypassing the cache entirely (the "non-caching file system" mode
    the SPIN web server runs on). *)

val write : t -> block:int -> Bytes.t -> unit
(** Writes any whole number of blocks from [block] on, in one disk
    request, after any I/O already in flight on [block] completes.
    Write-through: updates the cached slots of every resident group
    the run touches. *)

val flush : t -> unit
(** Drop every cached block and return the pages. *)

val stats : t -> Cache_stats.t
(** [bytes_cached] counts whole resident pages; [reclaims] counts
    pages lost to memory pressure. *)

val degraded : t -> int
(** Reads served uncached because no page could be had even after
    reclamation. *)
