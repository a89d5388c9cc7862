(* Tests for the buffer cache, the on-disk file system, and the web
   server's hybrid file cache. *)

open Alcotest
open Spin_fs
module Machine = Spin_machine.Machine
module Disk = Spin_machine.Disk_dev
module Clock = Spin_machine.Clock
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr

(* Everything runs in strand context; this helper boots a machine and
   runs the body as a kernel thread. The caches are page-backed, so
   the fixture also brings up the physical address service with the
   production replacement policy. *)
let with_fs_machine body =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  ignore (Spin_vm.Reclaim_policy.install_second_chance phys);
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let failure = ref None in
  ignore (Sched.spawn sched ~name:"fs-test" (fun () ->
    try body m sched disk cache phys with e -> failure := Some e));
  Sched.run sched;
  match !failure with Some e -> raise e | None -> ()

(* From strand context: run [bodies] as strands, spawned in order, and
   return once every one has finished, re-raising the first failure. *)
let concurrently sched bodies =
  let running = ref (List.length bodies) and failure = ref None in
  List.iteri
    (fun i body ->
      ignore (Sched.spawn sched ~name:(Printf.sprintf "strand-%d" i) (fun () ->
        (try body () with e -> if !failure = None then failure := Some e);
        decr running)))
    bodies;
  while !running > 0 do Sched.sleep_us sched 1_000. done;
  Option.iter raise !failure

(* ------------------------------------------------------------------ *)
(* Block cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_block_cache_roundtrip () =
  with_fs_machine (fun _ _ _ cache _ ->
    let data = Bytes.make Disk.block_size 'z' in
    Block_cache.write cache ~block:7 data;
    check bytes "read back" data (Block_cache.read cache ~block:7))

let test_block_cache_hits () =
  with_fs_machine (fun _ _ _ cache _ ->
    ignore (Block_cache.read cache ~block:3);      (* miss *)
    ignore (Block_cache.read cache ~block:3);      (* hit *)
    ignore (Block_cache.read cache ~block:3);      (* hit *)
    let st = Block_cache.stats cache in
    check int "one miss" 1 st.Cache_stats.misses;
    check int "two hits" 2 st.Cache_stats.hits;
    check bool "pages resident" true (st.Cache_stats.bytes_cached > 0))

let test_block_cache_uncached_bypasses () =
  with_fs_machine (fun _ _ _ cache _ ->
    ignore (Block_cache.read_uncached cache ~block:9);
    ignore (Block_cache.read_uncached cache ~block:9);
    check int "no hits" 0 (Block_cache.stats cache).Cache_stats.hits)

let test_block_cache_hit_is_fast () =
  with_fs_machine (fun m _ _ cache _ ->
    ignore (Block_cache.read cache ~block:5);
    let hit = Clock.stamp m.Machine.clock (fun () ->
      ignore (Block_cache.read cache ~block:5)) in
    (* A hit is a memory copy (~microseconds); a miss is a disk access
       (~milliseconds). *)
    check bool "hit under 10us" true
      (Spin_machine.Cost.cycles_to_us m.Machine.cost hit < 10.))

let test_block_cache_survives_reclaim () =
  with_fs_machine (fun _ _ _ cache phys ->
    let data = Bytes.make Disk.block_size 'q' in
    Block_cache.write cache ~block:11 data;
    ignore (Block_cache.read cache ~block:11);     (* miss: now cached *)
    ignore (Block_cache.read cache ~block:11);     (* hit *)
    (* Pressure takes the cache's page... *)
    check bool "a page was reclaimed" true
      (Phys_addr.force_reclaim phys <> None);
    check int "cache observed the loss" 1
      (Block_cache.stats cache).Cache_stats.reclaims;
    check int "nothing resident" 0
      (Block_cache.stats cache).Cache_stats.bytes_cached;
    (* ...and the next read simply refetches from disk. *)
    check bytes "data intact after reclaim" data
      (Block_cache.read cache ~block:11);
    ignore (Block_cache.read cache ~block:11);
    check int "cache works again" 2 (Block_cache.stats cache).Cache_stats.hits)

(* Regression: concurrent readers of the same in-flight block used to
   overwrite each other's pending registration, so the completion
   interrupt woke only the last to register and the rest slept forever.
   Needs its own fixture — [with_fs_machine] runs the body as a single
   strand, and this bug only exists between strands. *)
let test_block_cache_concurrent_same_block () =
  let m = Machine.create ~name:"fstest" ~mem_mb:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let sched = Sched.create m.Machine.sim d in
  let phys = Phys_addr.create m d in
  ignore (Spin_vm.Reclaim_policy.install_second_chance phys);
  let disk = Machine.add_disk ~blocks:8192 m in
  let cache = Block_cache.create ~phys m sched disk in
  let completed = ref 0 in
  for i = 1 to 3 do
    ignore (Sched.spawn sched ~name:(Printf.sprintf "reader-%d" i) (fun () ->
      ignore (Block_cache.read cache ~block:42);
      incr completed))
  done;
  Sched.run sched;
  check int "all readers woken" 3 !completed;
  (* One request in flight, everyone joined it. *)
  check int "single disk read" 1 (Disk.reads disk)

(* A run of blocks is one disk request each way, and a write of a run
   refreshes the resident slots of every group it crosses. *)
let test_block_cache_runs () =
  with_fs_machine (fun _ _ disk cache _ ->
    let bs = Disk.block_size in
    ignore (Block_cache.read cache ~block:15);     (* groups 0 and 1 *)
    ignore (Block_cache.read cache ~block:16);     (* resident *)
    let run = Bytes.init (3 * bs) (fun i -> Char.chr (i / bs + 65)) in
    let writes = Disk.writes disk and reads = Disk.reads disk in
    Block_cache.write cache ~block:15 run;
    check int "one write request" 1 (Disk.writes disk - writes);
    for i = 0 to 2 do
      check bytes (Printf.sprintf "block %d" (15 + i))
        (Bytes.sub run (i * bs) bs) (Block_cache.read cache ~block:(15 + i))
    done;
    check int "all three served from the cache" reads (Disk.reads disk);
    check bytes "uncached run" run
      (Block_cache.read_uncached cache ~block:15 ~count:3);
    check int "one read request" (reads + 1) (Disk.reads disk))

(* Regression: a write that found a read of its block in flight used
   to join that read's completion and return without ever submitting
   its own data, so the write was lost. *)
let test_block_cache_write_during_read () =
  with_fs_machine (fun _ sched disk cache _ ->
    let data = Bytes.make Disk.block_size 'N' in
    concurrently sched
      [ (fun () -> ignore (Block_cache.read_uncached cache ~block:9));
        (fun () -> Block_cache.write cache ~block:9 data) ];
    check int "the write reached the disk" 1 (Disk.writes disk);
    check bytes "block 9 holds the write" data
      (Block_cache.read_uncached cache ~block:9))

(* Regression: a read of an unfilled slot in a resident page filled
   that page after its disk wait even when reclaim had taken the page
   meanwhile, and the reading strand died on the revoked capability. *)
let test_block_cache_page_reclaimed_during_fill () =
  with_fs_machine (fun _ sched _ cache phys ->
    let data = Bytes.make Disk.block_size 'r' in
    Block_cache.write cache ~block:1 data;
    ignore (Block_cache.read cache ~block:0);      (* group 0 resident *)
    let got = ref Bytes.empty in
    concurrently sched
      [ (fun () -> got := Block_cache.read cache ~block:1);
        (fun () -> while Phys_addr.force_reclaim phys <> None do () done) ];
    check bytes "read survives the reclaim" data !got;
    check int "the page was reclaimed" 1
      (Block_cache.stats cache).Cache_stats.reclaims;
    check int "the block is cached again" Spin_machine.Addr.page_size
      (Block_cache.stats cache).Cache_stats.bytes_cached)

(* ------------------------------------------------------------------ *)
(* Simple_fs                                                          *)
(* ------------------------------------------------------------------ *)

let test_fs_create_write_read () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"hello.txt";
    Simple_fs.write fs ~name:"hello.txt" (Bytes.of_string "hello, disk");
    check string "contents" "hello, disk"
      (Bytes.to_string (Simple_fs.read fs ~name:"hello.txt"));
    check int "size" 11 (Simple_fs.size fs ~name:"hello.txt"))

let test_fs_large_file_indirect () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"big";
    (* Past the direct blocks (12 * 512 = 6144 bytes). *)
    let data = Bytes.init 40_000 (fun i -> Char.chr (i land 0xff)) in
    Simple_fs.write fs ~name:"big" data;
    check bytes "indirect blocks round-trip" data (Simple_fs.read fs ~name:"big"))

let test_fs_max_file_size_enforced () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"huge";
    check bool "max is 70KB" true (Simple_fs.max_file_bytes = 71680);
    (try
       Simple_fs.write fs ~name:"huge"
         (Bytes.create (Simple_fs.max_file_bytes + 1));
       fail "expected File_too_large"
     with Simple_fs.Fs_error Simple_fs.File_too_large -> ()))

let test_fs_append () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"log";
    Simple_fs.append fs ~name:"log" (Bytes.of_string "one ");
    Simple_fs.append fs ~name:"log" (Bytes.of_string "two");
    check string "appended" "one two"
      (Bytes.to_string (Simple_fs.read fs ~name:"log")))

let test_fs_read_range () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"f";
    Simple_fs.write fs ~name:"f" (Bytes.of_string "0123456789");
    check string "middle" "345"
      (Bytes.to_string (Simple_fs.read_range fs ~name:"f" ~off:3 ~len:3));
    check string "over the end clips" "89"
      (Bytes.to_string (Simple_fs.read_range fs ~name:"f" ~off:8 ~len:10)))

let test_fs_errors () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    (try ignore (Simple_fs.read fs ~name:"ghost"); fail "expected error"
     with Simple_fs.Fs_error Simple_fs.No_such_file -> ());
    Simple_fs.create fs ~name:"dup";
    (try Simple_fs.create fs ~name:"dup"; fail "expected File_exists"
     with Simple_fs.Fs_error Simple_fs.File_exists -> ());
    (try Simple_fs.create fs ~name:(String.make 40 'x'); fail "expected Name_too_long"
     with Simple_fs.Fs_error Simple_fs.Name_too_long -> ()))

let test_fs_delete_frees_space () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"tmp";
    (* The root directory grew by a block on create; measure from
       here so delete accounting is exact. *)
    let free0 = Simple_fs.free_blocks fs in
    Simple_fs.write fs ~name:"tmp" (Bytes.create 20_000);
    check bool "space consumed" true (Simple_fs.free_blocks fs < free0);
    Simple_fs.delete fs ~name:"tmp";
    check int "space restored" free0 (Simple_fs.free_blocks fs);
    check bool "gone" false (Simple_fs.exists fs ~name:"tmp");
    check (list string) "directory empty" [] (Simple_fs.list_files fs))

let test_fs_many_files_listed () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let names = List.init 20 (Printf.sprintf "file%02d") in
    List.iter (fun name ->
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.of_string name)) names;
    check (list string) "all listed" names
      (List.sort compare (Simple_fs.list_files fs));
    List.iter (fun name ->
      check string "each content" name
        (Bytes.to_string (Simple_fs.read fs ~name))) names)

let test_fs_persists_across_mount () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"stable";
    Simple_fs.write fs ~name:"stable" (Bytes.of_string "persisted");
    (* Drop all in-memory state and remount from disk blocks. *)
    Block_cache.flush cache;
    let fs2 = Simple_fs.mount cache in
    check string "survives remount" "persisted"
      (Bytes.to_string (Simple_fs.read fs2 ~name:"stable"));
    check int "free space agrees"
      (Simple_fs.free_blocks fs) (Simple_fs.free_blocks fs2))

let test_fs_mount_rejects_garbage () =
  with_fs_machine (fun _ _ _ cache _ ->
    (try ignore (Simple_fs.mount cache); fail "expected mount failure"
     with Simple_fs.Fs_error Simple_fs.No_such_file -> ()))

(* The fast storage path: a same-size rewrite frees and reallocates
   the same blocks, so the bitmaps and the inode do not change and only
   the data run is written; an uncached read of the file is one disk
   request. *)
let test_fs_one_request_per_run () =
  with_fs_machine (fun _ _ disk cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"page";
    Simple_fs.write fs ~name:"page" (Bytes.make 6144 'a');
    let v2 = Bytes.init 6144 (fun i -> Char.chr (i land 0xff)) in
    let writes = Disk.writes disk in
    Simple_fs.write fs ~name:"page" v2;
    check int "rewrite is one disk write" 1 (Disk.writes disk - writes);
    let reads = Disk.reads disk in
    let got = Simple_fs.read ~cached:false fs ~name:"page" in
    check int "uncached read is one disk read" 1 (Disk.reads disk - reads);
    check bytes "contents" v2 got)

(* Bitmaps are synced once per operation, and only where they changed:
   after a mix of operations a fresh mount must see exactly what the
   live file system does. *)
let test_fs_deferred_sync_is_consistent () =
  with_fs_machine (fun _ _ _ cache _ ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let content name n =
      Bytes.init n (fun i -> Char.chr ((i + Hashtbl.hash name) land 0xff)) in
    List.iter (fun (name, n) ->
        Simple_fs.create fs ~name;
        Simple_fs.write fs ~name (content name n))
      [ ("a", 6144); ("b", 700); ("c", 20_000); ("d", 3000) ];
    (* a grows into the indirect block, d shrinks, e reuses c's blocks. *)
    Simple_fs.write fs ~name:"a" (content "a2" 9000);
    Simple_fs.append fs ~name:"b" (content "b2" 1500);
    Simple_fs.delete fs ~name:"c";
    Simple_fs.write fs ~name:"d" (content "d2" 100);
    Simple_fs.create fs ~name:"e";
    Simple_fs.write fs ~name:"e" (content "e" 12_000);
    let expect =
      [ ("a", content "a2" 9000);
        ("b", Bytes.cat (content "b" 700) (content "b2" 1500));
        ("d", content "d2" 100);
        ("e", content "e" 12_000) ] in
    let names = List.map fst expect in
    List.iter (fun (name, data) ->
        check bytes ("live " ^ name) data (Simple_fs.read fs ~name))
      expect;
    Block_cache.flush cache;
    let fs2 = Simple_fs.mount cache in
    check (list string) "same files" names
      (List.sort compare (Simple_fs.list_files fs2));
    List.iter (fun (name, data) ->
        check bytes ("remounted " ^ name) data
          (Simple_fs.read ~cached:false fs2 ~name))
      expect;
    check int "same free blocks" (Simple_fs.free_blocks fs)
      (Simple_fs.free_blocks fs2))

(* ------------------------------------------------------------------ *)
(* File cache                                                         *)
(* ------------------------------------------------------------------ *)

let test_file_cache_small_files_cached () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"small";
    Simple_fs.write fs ~name:"small" (Bytes.of_string "tiny object");
    let fc = File_cache.create ~phys fs in
    (match File_cache.fetch fc ~name:"small" with
     | Some data -> check string "first fetch" "tiny object" (Bytes.to_string data)
     | None -> fail "missing");
    ignore (File_cache.fetch fc ~name:"small");
    let st = File_cache.stats fc in
    check int "one miss then one hit" 1 st.Cache_stats.hits;
    check int "misses" 1 st.Cache_stats.misses)

let test_file_cache_large_files_bypass () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"large";
    Simple_fs.write fs ~name:"large" (Bytes.create 70_000);
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"large");
    ignore (File_cache.fetch fc ~name:"large");
    let st = File_cache.stats fc in
    check int "no cache traffic" 0 (Cache_stats.lookups st);
    check int "both bypassed" 2 (File_cache.large_bypasses fc);
    check int "nothing held" 0 st.Cache_stats.bytes_cached)

let test_file_cache_hit_avoids_disk () =
  with_fs_machine (fun m _ disk cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    Simple_fs.write fs ~name:"obj" (Bytes.create 4_000);
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"obj");
    let reads_before = Disk.reads disk in
    let spent = Clock.stamp m.Machine.clock (fun () ->
      ignore (File_cache.fetch fc ~name:"obj")) in
    check int "no disk reads on hit" reads_before (Disk.reads disk);
    check bool "hit is microseconds" true
      (Spin_machine.Cost.cycles_to_us m.Machine.cost spent < 200.))

let test_file_cache_byte_budget () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let names = List.init 6 (Printf.sprintf "f%d") in
    List.iter (fun name ->
      Simple_fs.create fs ~name;
      Simple_fs.write fs ~name (Bytes.create 10_000)) names;
    let fc = File_cache.create ~capacity_bytes:30_000 ~phys fs in
    List.iter (fun name -> ignore (File_cache.fetch fc ~name)) names;
    let st = File_cache.stats fc in
    check bool "budget respected" true (st.Cache_stats.bytes_cached <= 30_000);
    check bool "something cached" true (st.Cache_stats.bytes_cached > 0))

let test_file_cache_invalidate () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"f";
    Simple_fs.write fs ~name:"f" (Bytes.of_string "v1");
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"f");
    Simple_fs.write fs ~name:"f" (Bytes.of_string "v2");
    File_cache.invalidate fc ~name:"f";
    (match File_cache.fetch fc ~name:"f" with
     | Some data -> check string "fresh after invalidate" "v2" (Bytes.to_string data)
     | None -> fail "missing"))

let test_file_cache_missing_file () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    let fc = File_cache.create ~phys fs in
    check bool "none for ghosts" true (File_cache.fetch fc ~name:"ghost" = None))

let test_file_cache_survives_reclaim () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    let data = Bytes.init 5_000 (fun i -> Char.chr (i land 0xff)) in
    Simple_fs.write fs ~name:"obj" data;
    let fc = File_cache.create ~phys fs in
    ignore (File_cache.fetch fc ~name:"obj");
    (* Drain every live page — block-cache metadata pages go first,
       eventually the file cache's entry is torn down too. *)
    while Phys_addr.force_reclaim phys <> None do () done;
    check bool "entry was reclaimed" true
      ((File_cache.stats fc).Cache_stats.reclaims >= 1);
    check int "nothing held" 0 (File_cache.stats fc).Cache_stats.bytes_cached;
    (* The object refetches on the next request. *)
    (match File_cache.fetch fc ~name:"obj" with
     | Some got -> check bytes "contents intact" data got
     | None -> fail "missing after reclaim");
    check int "refetch was a miss" 2 (File_cache.stats fc).Cache_stats.misses)

(* Regression: two concurrent misses on one file both inserted it, and
   the replaced entry's page leaked while still counted, so the cache
   believed itself over budget from then on. *)
let test_file_cache_concurrent_misses () =
  with_fs_machine (fun _ sched _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    Simple_fs.write fs ~name:"obj" (Bytes.make 3_000 'o');
    let fc = File_cache.create ~phys fs in
    let fetch () = ignore (File_cache.fetch fc ~name:"obj") in
    concurrently sched [ fetch; fetch ];
    check int "two misses" 2 (File_cache.stats fc).Cache_stats.misses;
    check int "one page held" Spin_machine.Addr.page_size
      (File_cache.stats fc).Cache_stats.bytes_cached;
    fetch ();
    check int "next fetch hits" 1 (File_cache.stats fc).Cache_stats.hits)

(* A miss whose disk read was in flight across an invalidate serves
   what it read but must not cache it: the invalidate may belong to a
   rewrite the read predates. *)
let test_file_cache_invalidate_during_miss () =
  with_fs_machine (fun _ sched _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"f";
    Simple_fs.write fs ~name:"f" (Bytes.of_string "v1");
    let fc = File_cache.create ~phys fs in
    let first = ref None in
    concurrently sched
      [ (fun () -> first := File_cache.fetch fc ~name:"f");
        (fun () ->
          File_cache.invalidate fc ~name:"f";
          Simple_fs.write fs ~name:"f" (Bytes.of_string "v2")) ];
    check (option string) "in-flight miss served its read" (Some "v1")
      (Option.map Bytes.to_string !first);
    check int "nothing cached" 0 (File_cache.stats fc).Cache_stats.bytes_cached;
    check (option string) "next fetch sees the rewrite" (Some "v2")
      (Option.map Bytes.to_string (File_cache.fetch fc ~name:"f"));
    check int "and was a miss" 2 (File_cache.stats fc).Cache_stats.misses)

let test_caches_degrade_when_reclaim_disabled () =
  with_fs_machine (fun _ _ _ cache phys ->
    let fs = Simple_fs.format cache ~blocks:8192 () in
    Simple_fs.create fs ~name:"obj";
    let data = Bytes.make 3_000 'd' in
    Simple_fs.write fs ~name:"obj" data;
    let fc = File_cache.create ~phys fs in
    (* A hog grabs the whole free pool with reclamation off; the
       caches must keep serving, just without pages. *)
    Phys_addr.set_reclaim_enabled phys false;
    (try
       while true do
         ignore
           (Phys_addr.allocate phys ~owner:"hog"
              ~bytes:Spin_machine.Addr.page_size)
       done
     with Phys_addr.Out_of_memory -> ());
    (match File_cache.fetch fc ~name:"obj" with
     | Some got -> check bytes "served uncached" data got
     | None -> fail "missing under pressure");
    check bool "file cache degraded" true (File_cache.degraded fc >= 1);
    check bool "oom was counted" true (Phys_addr.oom_failures phys >= 1))

let () =
  Alcotest.run "spin_fs"
    [
      ( "block_cache",
        [
          test_case "roundtrip" `Quick test_block_cache_roundtrip;
          test_case "hit accounting" `Quick test_block_cache_hits;
          test_case "uncached bypass" `Quick test_block_cache_uncached_bypasses;
          test_case "hits are fast" `Quick test_block_cache_hit_is_fast;
          test_case "survives reclaim" `Quick test_block_cache_survives_reclaim;
          test_case "concurrent same-block readers" `Quick
            test_block_cache_concurrent_same_block;
          test_case "runs are one request" `Quick test_block_cache_runs;
          test_case "write during an in-flight read" `Quick
            test_block_cache_write_during_read;
          test_case "page reclaimed during a fill" `Quick
            test_block_cache_page_reclaimed_during_fill;
        ] );
      ( "simple_fs",
        [
          test_case "create/write/read" `Quick test_fs_create_write_read;
          test_case "indirect blocks" `Quick test_fs_large_file_indirect;
          test_case "max size enforced" `Quick test_fs_max_file_size_enforced;
          test_case "append" `Quick test_fs_append;
          test_case "ranged reads" `Quick test_fs_read_range;
          test_case "error cases" `Quick test_fs_errors;
          test_case "delete frees space" `Quick test_fs_delete_frees_space;
          test_case "many files" `Quick test_fs_many_files_listed;
          test_case "persists across mount" `Quick test_fs_persists_across_mount;
          test_case "mount rejects garbage" `Quick test_fs_mount_rejects_garbage;
          test_case "one request per run" `Quick test_fs_one_request_per_run;
          test_case "deferred sync is consistent" `Quick
            test_fs_deferred_sync_is_consistent;
        ] );
      ( "file_cache",
        [
          test_case "small files cached" `Quick test_file_cache_small_files_cached;
          test_case "large files bypass" `Quick test_file_cache_large_files_bypass;
          test_case "hits avoid the disk" `Quick test_file_cache_hit_avoids_disk;
          test_case "byte budget" `Quick test_file_cache_byte_budget;
          test_case "invalidate" `Quick test_file_cache_invalidate;
          test_case "missing file" `Quick test_file_cache_missing_file;
          test_case "survives reclaim" `Quick test_file_cache_survives_reclaim;
          test_case "concurrent misses" `Quick
            test_file_cache_concurrent_misses;
          test_case "invalidate during a miss" `Quick
            test_file_cache_invalidate_during_miss;
          test_case "degrades without reclaim" `Quick
            test_caches_degrade_when_reclaim_disabled;
        ] );
    ]
