(** Capacity-bounded LRU maps.

    The buffer cache and the web server's file cache use LRU
    replacement; an eviction callback lets the owner write back or
    account for the displaced entry. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] is an empty cache evicting least-recently-used
    entries beyond [capacity]. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the binding and marks it most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} without touching recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** [add t k v] binds [k], marks it most recently used, and evicts the
    LRU entry if over capacity. A previous binding of [k] to a
    different value is passed to the eviction callback, like any
    other value that leaves the cache. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Removes without invoking the eviction callback. *)

val coldest : ('k, 'v) t -> ('k * 'v) option
(** The least-recently-used binding, without touching recency; O(1). *)

val mem : ('k, 'v) t -> 'k -> bool

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Most-recently-used first. *)

val clear : ('k, 'v) t -> unit
