(** The SPIN web server's hybrid object cache (paper, section 5.4):
    LRU caching for small files, no caching for large files (which
    "tend to be accessed infrequently"), running over the non-caching
    file system mode so that nothing is double-buffered.

    Cached files live in {!Spin_vm.Phys_addr.page} capabilities (one
    single page per 8 KB chunk, never a contiguous run), so the cache
    participates in the reclamation protocol: it volunteers the
    coldest entry's page when one of its own pages was picked, and an
    entry that loses a page to pressure is re-fetched on the next
    request. The copy out of cache pages on a hit is the charged
    hand-off to the requesting domain. *)

type t

val create :
  ?capacity_bytes:int -> ?large_threshold:int -> ?owner:string ->
  phys:Spin_vm.Phys_addr.t -> Simple_fs.t -> t
(** Defaults: 4 MB capacity, 64 KB large-file threshold. Registers a
    volunteer handler on the physical service's [Reclaim] event and
    an invalidate callback. [owner] names this cache's allocations
    (default ["FileCache"]). *)

val fetch : t -> name:string -> Bytes.t option
(** The file's contents, from cache when possible; [None] if the file
    does not exist. Small files are inserted on miss (served uncached
    when no pages can be had even after reclamation); large files
    always go to the file system (uncached at both levels). *)

val invalidate : t -> name:string -> unit
(** Drops [name]'s entry. A miss on [name] whose disk read was in
    flight across the invalidate still serves what it read, but does
    not cache it. *)

val stats : t -> Cache_stats.t
(** [bytes_cached] counts whole resident pages; [reclaims] counts
    entries lost to memory pressure. *)

val large_bypasses : t -> int
(** Requests served around the cache because the file was large. *)

val degraded : t -> int
(** Insertions abandoned because no pages could be had. *)
