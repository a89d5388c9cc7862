(** A disk-based file system (the paper's `core` component includes
    "a disk-based and network-based file system").

    Classic layout on the simulated disk:
    {v
      block 0            superblock
      block 1            inode bitmap (4096 inodes)
      blocks 2..k        data-block bitmap
      blocks k+1..m      inode table (8 inodes per 512-byte block)
      blocks m+1..       data
    v}

    Inodes hold 12 direct block pointers and one indirect block (128
    pointers), so a file holds up to 71,680 bytes — enough for the
    paper's web objects and video frames. A single root directory
    (inode 0) maps names to inodes.

    All operations must run in strand context (they block on disk
    I/O). Reads can bypass the buffer cache, which is how the SPIN
    web server runs on a non-caching file system and manages its own
    object cache instead; such a read is one disk request per run of
    file blocks that are contiguous on disk, and so is every data
    write. Metadata is written only where it changed: each operation
    that modifies the file system syncs its bitmaps once, at its end.
    Those operations are not serialized against each other: run them
    one at a time (reads may run beside them). *)

type t

type error =
  | No_such_file
  | File_exists
  | No_space
  | File_too_large
  | Name_too_long

exception Fs_error of error

val error_to_string : error -> string

val max_file_bytes : int

val format : Block_cache.t -> ?ninodes:int -> blocks:int -> unit -> t
(** Writes a fresh file system covering [blocks] blocks of the disk
    and mounts it. *)

val mount : Block_cache.t -> t
(** Reads the superblock and bitmaps of a previously formatted disk.
    Raises [Fs_error No_such_file] if the magic is wrong. *)

val create : t -> name:string -> unit
(** Creates an empty file. Raises [Fs_error File_exists] or
    [Name_too_long] (names are at most 27 bytes). *)

val write : t -> name:string -> Bytes.t -> unit
(** Replaces the file's contents. *)

val append : t -> name:string -> Bytes.t -> unit

val read : ?cached:bool -> t -> name:string -> Bytes.t
(** Whole-file read; [cached:false] (default [true]) bypasses the
    buffer cache. *)

val read_range : ?cached:bool -> t -> name:string -> off:int -> len:int -> Bytes.t

val size : t -> name:string -> int

val exists : t -> name:string -> bool

val delete : t -> name:string -> unit

val list_files : t -> string list

val free_blocks : t -> int
