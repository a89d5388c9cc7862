module Disk = Spin_machine.Disk_dev
module Bitset = Spin_dstruct.Bitset

let bs = Disk.block_size
let magic = 0x53504653                    (* "SPFS" *)
let ndirect = 12
let nindirect = bs / 4                    (* 128 pointers *)
let max_file_blocks = ndirect + nindirect
let max_file_bytes = max_file_blocks * bs
let inode_size = 64
let inodes_per_block = bs / inode_size
let dirent_size = 32
let max_name = dirent_size - 4 - 1        (* name, NUL, inode number *)
let root_inode = 0

type error =
  | No_such_file
  | File_exists
  | No_space
  | File_too_large
  | Name_too_long

exception Fs_error of error

let error_to_string = function
  | No_such_file -> "no such file"
  | File_exists -> "file exists"
  | No_space -> "no space on device"
  | File_too_large -> "file too large"
  | Name_too_long -> "name too long"

type inode = {
  mutable size : int;
  direct : int array;                     (* block numbers; 0 = hole *)
  mutable indirect : int;                 (* indirect block, 0 = none *)
}

(* An on-disk bitmap: the set in memory, and the bytes its blocks
   hold on disk as of the last sync. *)
type bitmap = {
  set : Bitset.t;
  start : int;                            (* first disk block *)
  mutable synced : Bytes.t;
  mutable dirty : bool;                   (* [set] changed since the sync *)
}

type t = {
  cache : Block_cache.t;
  itable_start : int;
  data_start : int;
  ibitmap : bitmap;
  dbitmap : bitmap;                       (* indexed by data block ordinal *)
}

(* ------------------------------------------------------------------ *)
(* On-disk encoding helpers                                           *)
(* ------------------------------------------------------------------ *)

let get32 b off = Int32.to_int (Bytes.get_int32_le b off)
let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode_inode ino =
  let b = Bytes.make inode_size '\000' in
  set32 b 0 ino.size;
  Array.iteri (fun i blk -> set32 b (4 + (i * 4)) blk) ino.direct;
  set32 b (4 + (ndirect * 4)) ino.indirect;
  b

let decode_inode b off =
  { size = get32 b off;
    direct = Array.init ndirect (fun i -> get32 b (off + 4 + (i * 4)));
    indirect = get32 b (off + 4 + (ndirect * 4)) }

let encode_bitset set =
  (* One bit per entry, packed into whole blocks. *)
  let nbits = Bitset.length set in
  let blocks = (((nbits + 7) / 8) + bs - 1) / bs in
  let b = Bytes.make (blocks * bs) '\000' in
  for i = 0 to nbits - 1 do
    if Bitset.mem set i then begin
      let byte = Char.code (Bytes.get b (i / 8)) in
      Bytes.set b (i / 8) (Char.chr (byte lor (1 lsl (i mod 8))))
    end
  done;
  b

let decode_bitset b nbits =
  let set = Bitset.create nbits in
  for i = 0 to nbits - 1 do
    if Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      Bitset.set set i
  done;
  set

(* ------------------------------------------------------------------ *)
(* Metadata I/O                                                       *)
(* ------------------------------------------------------------------ *)

let block_differs a b i =
  let rec go off =
    off < (i + 1) * bs
    && (Bytes.get a off <> Bytes.get b off || go (off + 1)) in
  go (i * bs)

(* Metadata reaches the disk only where it changed: a bitmap is synced
   once per operation, writing one request per run of blocks whose
   bytes differ from what the disk holds. *)
let sync_bitmap t bm =
  if bm.dirty then begin
    bm.dirty <- false;
    let old = bm.synced and now = encode_bitset bm.set in
    bm.synced <- now;
    let n = Bytes.length now / bs in
    let rec run_end j =
      if j < n && block_differs old now j then run_end (j + 1) else j in
    let rec scan i =
      if i < n then
        if block_differs old now i then begin
          let j = run_end (i + 1) in
          Block_cache.write t.cache ~block:(bm.start + i)
            (Bytes.sub now (i * bs) ((j - i) * bs));
          scan j
        end
        else scan (i + 1) in
    scan 0
  end

let sync t =
  sync_bitmap t t.ibitmap;
  sync_bitmap t t.dbitmap

let read_inode t i =
  let block = t.itable_start + (i / inodes_per_block) in
  let data = Block_cache.read t.cache ~block in
  decode_inode data ((i mod inodes_per_block) * inode_size)

let write_inode t i ino =
  let block = t.itable_start + (i / inodes_per_block) in
  let data = Block_cache.read t.cache ~block in
  let off = (i mod inodes_per_block) * inode_size in
  let enc = encode_inode ino in
  if not (Bytes.equal enc (Bytes.sub data off inode_size)) then begin
    Bytes.blit enc 0 data off inode_size;
    Block_cache.write t.cache ~block data
  end

let alloc_inode t =
  match Bitset.find_first_clear t.ibitmap.set with
  | None -> raise (Fs_error No_space)
  | Some i ->
    Bitset.set t.ibitmap.set i;
    t.ibitmap.dirty <- true;
    i

let alloc_data_block t =
  match Bitset.find_first_clear t.dbitmap.set with
  | None -> raise (Fs_error No_space)
  | Some ordinal ->
    Bitset.set t.dbitmap.set ordinal;
    t.dbitmap.dirty <- true;
    t.data_start + ordinal

let free_data_block t block =
  if block >= t.data_start then begin
    Bitset.clear t.dbitmap.set (block - t.data_start);
    t.dbitmap.dirty <- true
  end

(* ------------------------------------------------------------------ *)
(* Block mapping through an inode                                     *)
(* ------------------------------------------------------------------ *)

let indirect_table t ino =
  if ino.indirect = 0 then None
  else Some (Block_cache.read t.cache ~block:ino.indirect)

(* The disk blocks of file blocks [first..last] (0 for a hole). With
   [alloc], holes get blocks, allocated in file order, and the indirect
   table is written once if it changed. *)
let file_blocks ?(alloc = false) t ino ~first ~last =
  let blocks = Array.make (last - first + 1) 0 in
  let table = ref (if last < ndirect then None else indirect_table t ino) in
  let table_changed = ref false in
  for n = first to last do
    blocks.(n - first) <-
      (if n < ndirect then begin
         if alloc && ino.direct.(n) = 0 then
           ino.direct.(n) <- alloc_data_block t;
         ino.direct.(n)
       end
       else
         let slot = (n - ndirect) * 4 in
         match !table with
         | Some tb when get32 tb slot <> 0 -> get32 tb slot
         | _ when not alloc -> 0
         | found ->
           let blk = alloc_data_block t in
           let tb =
             match found with
             | Some tb -> tb
             | None ->
               ino.indirect <- alloc_data_block t;
               let tb = Bytes.make bs '\000' in
               table := Some tb;
               tb in
           set32 tb slot blk;
           table_changed := true;
           blk)
  done;
  (match !table with
   | Some tb when !table_changed ->
     Block_cache.write t.cache ~block:ino.indirect tb
   | _ -> ());
  blocks

(* The length of the run of [blocks] from [i] on that is contiguous on
   disk: such a run is one disk request. *)
let run_length blocks i =
  let rec go k =
    if i + k < Array.length blocks && blocks.(i + k) = blocks.(i) + k
    then go (k + 1) else k in
  go 1

let truncate_inode t ino =
  for n = 0 to ndirect - 1 do
    if ino.direct.(n) <> 0 then begin
      free_data_block t ino.direct.(n);
      ino.direct.(n) <- 0
    end
  done;
  (match indirect_table t ino with
   | Some table ->
     for i = 0 to nindirect - 1 do
       let blk = get32 table (i * 4) in
       if blk <> 0 then free_data_block t blk
     done;
     free_data_block t ino.indirect;
     ino.indirect <- 0
   | None -> ());
  ino.size <- 0

(* ------------------------------------------------------------------ *)
(* Inode-level read and write                                         *)
(* ------------------------------------------------------------------ *)

(* Copy file block [n]'s share of the range that [out] holds from
   file offset [off] on, out of [src], which holds the block at [pos]. *)
let copy_out out ~off n src pos =
  let base = n * bs in
  let lo = max off base and hi = min (off + Bytes.length out) (base + bs) in
  Bytes.blit src (pos + lo - base) out (lo - off) (hi - lo)

let read_inode_data t ?(cached = true) ino ~off ~len =
  let len = max 0 (min len (ino.size - off)) in
  let out = Bytes.make len '\000' in                (* holes read as zeros *)
  if len > 0 then begin
    let first = off / bs and last = (off + len - 1) / bs in
    let blocks = file_blocks t ino ~first ~last in
    let i = ref 0 in
    while !i < Array.length blocks do
      let block = blocks.(!i) in
      if block = 0 then incr i
      else if cached then begin
        copy_out out ~off (first + !i) (Block_cache.read t.cache ~block) 0;
        incr i
      end
      else begin
        let count = run_length blocks !i in
        let data = Block_cache.read_uncached t.cache ~block ~count in
        for k = 0 to count - 1 do
          copy_out out ~off (first + !i + k) data (k * bs)
        done;
        i := !i + count
      end
    done
  end;
  out

let write_inode_data t ino ~off data =
  let len = Bytes.length data in
  if off + len > max_file_bytes then raise (Fs_error File_too_large);
  if len > 0 then begin
    let first = off / bs and last = (off + len - 1) / bs in
    let blocks = file_blocks ~alloc:true t ino ~first ~last in
    let i = ref 0 in
    while !i < Array.length blocks do
      let count = run_length blocks !i in
      let buf = Bytes.make (count * bs) '\000' in
      for k = 0 to count - 1 do
        let base = (first + !i + k) * bs in
        let lo = max off base and hi = min (off + len) (base + bs) in
        (* A block the write covers only in part keeps the file bytes
           it already held; one wholly past the end holds none. *)
        if hi - lo < bs && base < ino.size then
          Bytes.blit (Block_cache.read t.cache ~block:blocks.(!i + k)) 0
            buf (k * bs) bs;
        Bytes.blit data (lo - off) buf ((k * bs) + lo - base) (hi - lo)
      done;
      Block_cache.write t.cache ~block:blocks.(!i) buf;
      i := !i + count
    done
  end;
  ino.size <- max ino.size (off + len)

(* ------------------------------------------------------------------ *)
(* Directory (single root)                                            *)
(* ------------------------------------------------------------------ *)

let decode_dirent data off =
  let rec name_len i = if i >= max_name || Bytes.get data (off + i) = '\000'
    then i else name_len (i + 1) in
  let len = name_len 0 in
  if len = 0 then None
  else Some (Bytes.sub_string data off len, get32 data (off + dirent_size - 4))

let dir_entries t =
  let root = read_inode t root_inode in
  let data = read_inode_data t root ~off:0 ~len:root.size in
  let rec loop off acc =
    if off + dirent_size > Bytes.length data then List.rev acc
    else
      match decode_dirent data off with
      | Some e -> loop (off + dirent_size) (e :: acc)
      | None -> loop (off + dirent_size) acc in
  loop 0 []

let dir_lookup t name =
  List.assoc_opt name (dir_entries t)

let dir_add t name inum =
  if String.length name > max_name then raise (Fs_error Name_too_long);
  let root = read_inode t root_inode in
  let data = read_inode_data t root ~off:0 ~len:root.size in
  (* Reuse a tombstone slot if one exists. *)
  let rec find_slot off =
    if off + dirent_size > Bytes.length data then root.size
    else if decode_dirent data off = None then off
    else find_slot (off + dirent_size) in
  let slot = find_slot 0 in
  let entry = Bytes.make dirent_size '\000' in
  Bytes.blit_string name 0 entry 0 (String.length name);
  set32 entry (dirent_size - 4) inum;
  write_inode_data t root ~off:slot entry;
  write_inode t root_inode root

let dir_remove t name =
  let root = read_inode t root_inode in
  let data = read_inode_data t root ~off:0 ~len:root.size in
  let rec loop off =
    if off + dirent_size > Bytes.length data then ()
    else
      match decode_dirent data off with
      | Some (n, _) when String.equal n name ->
        write_inode_data t root ~off (Bytes.make dirent_size '\000');
        write_inode t root_inode root
      | Some _ | None -> loop (off + dirent_size) in
  loop 0

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let layout ~ninodes ~blocks =
  let ibitmap_block = 1 in
  let dbitmap_start = 2 in
  (* One bit per block of the whole device keeps the math simple. *)
  let dbitmap_blocks = (((blocks + 7) / 8) + bs - 1) / bs in
  let itable_start = dbitmap_start + dbitmap_blocks in
  let itable_blocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let data_start = itable_start + itable_blocks in
  (ibitmap_block, dbitmap_start, dbitmap_blocks, itable_start, data_start)

let make cache ~ninodes ~blocks ~ibitmap ~dbitmap =
  let ibitmap_block, dbitmap_start, _, itable_start, data_start =
    layout ~ninodes ~blocks in
  let bitmap set start data =
    { set; start; synced = data; dirty = false } in
  { cache; itable_start; data_start;
    ibitmap = bitmap ibitmap ibitmap_block (encode_bitset ibitmap);
    dbitmap = bitmap dbitmap dbitmap_start (encode_bitset dbitmap) }

let format cache ?(ninodes = 512) ~blocks () =
  let _, _, _, _, data_start = layout ~ninodes ~blocks in
  if data_start + 8 > blocks then invalid_arg "Simple_fs.format: too few blocks";
  let ibitmap = Bitset.create ninodes in
  let dbitmap = Bitset.create (blocks - data_start) in
  (* Root directory: inode 0, empty (an all-zero inode). *)
  Bitset.set ibitmap root_inode;
  let t = make cache ~ninodes ~blocks ~ibitmap ~dbitmap in
  (* Every metadata block, contiguous from block 0, in one request:
     superblock, bitmaps, and the zeroed inode table. *)
  let meta = Bytes.make (data_start * bs) '\000' in
  set32 meta 0 magic;
  set32 meta 4 ninodes;
  set32 meta 8 blocks;
  List.iter
    (fun bm ->
       Bytes.blit bm.synced 0 meta (bm.start * bs) (Bytes.length bm.synced))
    [ t.ibitmap; t.dbitmap ];
  Block_cache.write cache ~block:0 meta;
  t

let mount cache =
  let sb = Block_cache.read cache ~block:0 in
  if get32 sb 0 <> magic then raise (Fs_error No_such_file);
  let ninodes = get32 sb 4 and blocks = get32 sb 8 in
  let ibitmap_block, dbitmap_start, dbitmap_blocks, _, data_start =
    layout ~ninodes ~blocks in
  let ibm_data = Block_cache.read cache ~block:ibitmap_block in
  let ibitmap = decode_bitset ibm_data ninodes in
  let dbm = Buffer.create (dbitmap_blocks * bs) in
  for i = 0 to dbitmap_blocks - 1 do
    Buffer.add_bytes dbm (Block_cache.read cache ~block:(dbitmap_start + i))
  done;
  let dbitmap = decode_bitset (Buffer.to_bytes dbm) (blocks - data_start) in
  make cache ~ninodes ~blocks ~ibitmap ~dbitmap

let lookup_exn t name =
  match dir_lookup t name with
  | Some inum -> inum
  | None -> raise (Fs_error No_such_file)

let exists t ~name = Option.is_some (dir_lookup t name)

(* Each operation that changes the file system ends by syncing the
   bitmaps it dirtied. *)
let create t ~name =
  if String.length name > max_name then raise (Fs_error Name_too_long);
  if exists t ~name then raise (Fs_error File_exists);
  let inum = alloc_inode t in
  write_inode t inum { size = 0; direct = Array.make ndirect 0; indirect = 0 };
  dir_add t name inum;
  sync t

let write t ~name data =
  let inum = lookup_exn t name in
  let ino = read_inode t inum in
  truncate_inode t ino;
  write_inode_data t ino ~off:0 data;
  write_inode t inum ino;
  sync t

let append t ~name data =
  let inum = lookup_exn t name in
  let ino = read_inode t inum in
  write_inode_data t ino ~off:ino.size data;
  write_inode t inum ino;
  sync t

let read ?(cached = true) t ~name =
  let ino = read_inode t (lookup_exn t name) in
  read_inode_data t ~cached ino ~off:0 ~len:ino.size

let read_range ?(cached = true) t ~name ~off ~len =
  let ino = read_inode t (lookup_exn t name) in
  read_inode_data t ~cached ino ~off ~len

let size t ~name = (read_inode t (lookup_exn t name)).size

let delete t ~name =
  let inum = lookup_exn t name in
  let ino = read_inode t inum in
  truncate_inode t ino;
  write_inode t inum ino;
  Bitset.clear t.ibitmap.set inum;
  t.ibitmap.dirty <- true;
  dir_remove t name;
  sync t

let list_files t = List.map fst (dir_entries t)

let free_blocks t =
  Bitset.length t.dbitmap.set - Bitset.count t.dbitmap.set
