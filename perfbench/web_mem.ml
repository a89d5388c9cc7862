(* web_mem: a closed loop of 4 clients doing HTTP GETs against a 2 MB,
   1-CPU server (the bench/b_mem.ml server), while a server-side writer
   rewrites files, an allocation hog holds memory and the pageout
   daemon reclaims.

   Why: the file and block caches, the disk, Phys_addr allocate and
   reclaim, and the Reclaim/SelectVictim dispatch do the work; the SMP
   scheduler does none. The read set (64 files of 6 KB, Zipf-skewed)
   is larger than the 192 KB file cache, so reads both hit and miss.
   Writes run beside the reads, so a read-path gain that costs writes
   or reclaim shows.

   The wire is T3 DMA at 622 Mb/s rather than b_mem's 10 Mb/s Lance: a
   6 KB body takes ~5 ms to serialize on the Lance, which would make
   the wire, not the server's caches, the bottleneck.

   The seed draws which files are popular, each client's file choices
   and think times, and the writer's schedule and files.

   Two defects of the stack make operations fail on this mix (see the
   README), so by default the benchmark works round both, as an
   application could:
   - A read of a file is not kept coherent with a rewrite of it. The
     benchmark serializes the two with a per-file reader-writer lock:
     a rewrite waits for the requests for its file that are in
     flight, and a request for the file waits for the rewrite. Reads
     of other files, and all the disk and memory traffic, still run
     beside the writer.
   - Block_cache.read can fill a page that was reclaimed while it
     waited on the disk, which kills the HTTP request strand. The hog
     installs a Reclaim handler that volunteers one of its own pages
     whenever the candidate is a block-cache page, so reclaim never
     takes one. File-cache pages are reclaimed as before.
   [~workarounds:false] drops both (the web_mem_race workload), which
   shows the defects as failed reads. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Nic = Spin_machine.Nic
module Addr = Spin_machine.Addr
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Pageout = Spin_vm.Pageout
module Simple_fs = Spin_fs.Simple_fs
module File_cache = Spin_fs.File_cache
module Dispatcher = Spin_core.Dispatcher
module Capability = Spin_core.Capability

let addr_server = Ip.addr_of_quad 10 0 3 1
let addr_client = Ip.addr_of_quad 10 0 3 2
let clients = 4
let per_client = 1000
let files = 64
let file_bytes = 6 * 1024
let zipf_s = 1.0

(* Each client thinks for a seeded exponential [think_us] before each
   request. The disk is the bottleneck and serves every operation in
   the same time; without think time the closed loop locks request
   arrivals to disk completions, and read latency comes out in whole
   disk operations, the same on almost every seed. *)
let think_us = 10_000.

(* The file system is sized to its contents (2 MB): Simple_fs rewrites
   the whole data-block bitmap on every block it allocates or frees, so
   on b_mem's 32 MB file system one 6 KB rewrite costs ~400 disk writes
   and the writer would get almost nothing done. *)
let fs_blocks = 4096

(* The writer rewrites one file per [reads_per_write] completed reads,
   the 1:10 write:read mix. After each rewrite it pauses for as long as
   the rewrite took plus a seeded exponential [write_jitter_us], so its
   synchronous disk traffic never holds the disk for more than about
   half the time and reads do not just queue behind writes. *)
let reads_per_write = 10
let write_jitter_us = 100_000.
let max_writes = clients * per_client / reads_per_write

(* Every [hog_interval_us] the hog allocates [hog_burst] pages — half
   as many again as the pageout daemon keeps free at most, so the tail
   of each burst (more than 1% of the hog's allocations) runs the
   reclaim path — and gives back as many of its oldest. *)
let hog_interval_us = 1_000_000.
let hog_burst = 48

(* A request still unanswered after [timeout_us] of virtual time is
   aborted and counted as failed. When an HTTP request strand dies (as
   it can here, on a revoked page capability) the server never answers
   or closes the connection, and without the timeout its client would
   wait forever. *)
let timeout_us = 10_000_000.
let watchdog_us = 500_000.

let name f = Printf.sprintf "f%02d.html" f

(* Zipf over ranks 1..files: a cumulative table searched by bisection. *)
let zipf_table () =
  let w = Array.init files (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf st cdf =
  let u = Random.State.float st 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid in
  min (files - 1) (go 0 (files - 1))

let setup ~workarounds ~seed =
  let st = Work.rng seed in
  let rank_file = Work.permutation st files in
  let cdf = zipf_table () in
  let pick () = rank_file.(zipf st cdf) in
  let choices = Array.init clients (fun _ -> Array.init per_client (fun _ -> pick ())) in
  let thinks =
    Array.init clients (fun _ ->
      Array.init per_client (fun _ -> Work.exponential st ~mean:think_us)) in
  let write_gaps =
    Array.init max_writes (fun _ -> Work.exponential st ~mean:write_jitter_us) in
  let write_files = Array.init max_writes (fun _ -> pick ()) in
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ~mem_mb:2 ~cpus:1 sim ~name:"www" ~addr:addr_server in
  let client = Host.create ~cpus:1 sim ~name:"client" ~addr:addr_client in
  let client_nic, server_nic =
    Host.wire ~mbps:622. client server ~kind:Nic.T3 in
  let phys = server.Host.phys in
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~capacity_blocks:512 ~phys
      server.Host.machine server.Host.sched disk in
  let served = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Simple_fs.format bc ~blocks:fs_blocks () in
    for f = 0 to files - 1 do
      Simple_fs.create fs ~name:(name f);
      Simple_fs.write fs ~name:(name f)
        (Work.content ~file:f ~version:0 ~bytes:file_bytes)
    done;
    let cache = File_cache.create ~capacity_bytes:(192 * 1024) ~phys fs in
    served := Some (fs, cache,
                    Http.create server.Host.machine server.Host.sched
                      server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let fs, cache, http = Option.get !served in
  let requests = Array.init files (fun f -> Work.request (name f)) in
  (* The hog empties the free pool (as in b_mem), then holds that much
     while allocating in bursts, so pressure stays level for the whole
     run. *)
  let stop = ref false and hog_oom = ref 0 in
  let hog_spans = ref Spans.off in
  let held = Queue.create () in
  let hog_alloc () =
    let sp = Spans.start !hog_spans Spans.Phys_allocate ~req:(-1) in
    (match Phys_addr.allocate phys ~owner:"hog" ~bytes:Addr.page_size with
     | p -> Queue.push p held
     | exception Phys_addr.Out_of_memory -> incr hog_oom);
    Spans.stop !hog_spans sp in
  if workarounds then begin
    let volunteer candidate =
      match Queue.fold (fun found p ->
          match found with
          | None when Capability.is_valid p -> Some p
          | _ -> found) None held with
      | Some p -> p
      | None -> candidate in
    match
      Dispatcher.install (Phys_addr.reclaim_event phys) ~installer:"hog"
        ~spec:(Dispatcher.Handler_spec.guarded (fun candidate ->
          Phys_addr.page_owner candidate = Some "BlockCache"))
        volunteer
    with
    | Ok _ -> ()
    | Error e -> failwith ("web_mem: " ^ Dispatcher.install_error_to_string e)
  end;
  ignore (Sched.spawn server.Host.sched ~name:"hog" (fun () ->
    while not !stop && Phys_addr.free_pages phys > 4 do
      hog_alloc ();
      Sched.sleep_us server.Host.sched 1.
    done;
    let hold = Queue.length held in
    while not !stop do
      for _ = 1 to hog_burst do hog_alloc () done;
      (* Reclaim takes hog pages too; forget those, so the hog goes on
         holding [hold] live pages. *)
      let live = Queue.create () in
      Queue.iter (fun p -> if Capability.is_valid p then Queue.push p live) held;
      Queue.clear held;
      Queue.transfer live held;
      while Queue.length held > hold do
        Phys_addr.deallocate phys (Queue.pop held)
      done;
      Sched.sleep_us server.Host.sched hog_interval_us
    done));
  let pageout = Pageout.create ~low_water:16 ~high_water:32 ~interval_us:5_000.
      server.Host.sched phys in
  Pageout.start pageout;
  (* Warm the caches under pressure: every file once, least popular
     first, so the popular ones are the most recently used. *)
  let warm_failed = ref 0 and warm_done = ref false in
  ignore (Sched.spawn client.Host.sched ~name:"warm" (fun () ->
    Sched.sleep_us client.Host.sched 2_000.;
    let buf = Bytes.create 16384 in
    for r = files - 1 downto 0 do
      let f = rank_file.(r) in
      let len = Work.get Spans.off ~req:0 clock client.Host.tcp ~dst:addr_server
          ~request:requests.(f) ~buf ~connect_cycles:(ref 0) in
      if Work.check_body buf len ~file:f ~bytes:file_bytes <> 0 then incr warm_failed
    done;
    warm_done := true));
  Host.run_all ~until:(fun () -> !warm_done) [ client; server ];
  if !warm_failed > 0 then failwith "web_mem: warm-up request failed";
  let fx = {
    Layers.server; client; server_nic; client_nic; disk = Some disk;
    http = Some http; file_cache = Some cache; block_cache = Some bc;
    pageout = Some pageout } in
  let total = clients * per_client in
  let run spans =
    hog_spans := spans;
    let oom0 = !hog_oom in
    (* committed.(f): newest version whose write and invalidate have
       returned; written.(f): newest version a write has started. *)
    let committed = Array.make files 0 and written = Array.make files 0 in
    let lat = Samples.create total and wlat = Samples.create max_writes in
    let failed = ref 0 and completed = ref 0 and writes = ref 0 in
    let write_failures = ref 0 and timeouts = ref 0 in
    let inflight = Array.make clients None in
    (* The per-file lock: writing.(f) while a rewrite of f is under
       way, reading.(f) requests for f in flight, waiting.(f) the
       client strands waiting for the rewrite of f. *)
    let writing = Array.make files false and reading = Array.make files 0 in
    let waiting = Array.init files (fun _ -> Queue.create ()) in
    (* The writer blocks until its reads have completed, and then until
       the requests for its file have drained; a client wakes it from a
       timer event, as a sleep's timer does, and only while it waits
       there (never inside a write's disk wait). *)
    let writer = ref None and writer_waiting = ref false in
    let wake_writer () =
      ignore (Sim.after_us sim 0. (fun () ->
        match !writer with
        | Some w when !writer_waiting ->
          writer_waiting := false;
          Sched.unblock server.Host.sched w
        | _ -> ())) in
    let t_end = ref 0 in
    let before = Layers.snapshot fx in
    let t_start = Clock.now clock in
    for c = 0 to clients - 1 do
      ignore (Sched.spawn client.Host.sched ~name:(Printf.sprintf "client-%d" c)
                (fun () ->
                   let buf = Bytes.create 16384 in
                   let connect_cycles = ref 0 in
                   for i = 0 to per_client - 1 do
                     let f = choices.(c).(i) in
                     Sched.sleep_us client.Host.sched thinks.(c).(i);
                     while writing.(f) do
                       Queue.push (Sched.self client.Host.sched) waiting.(f);
                       Sched.block_current client.Host.sched
                     done;
                     if workarounds then reading.(f) <- reading.(f) + 1;
                     let floor = committed.(f) in
                     let t0 = Clock.now clock in
                     let deadline = t0 + Work.us_to_cycles timeout_us in
                     let len =
                       Work.get spans ~req:((c * per_client) + i) clock
                         client.Host.tcp ~dst:addr_server ~request:requests.(f)
                         ~buf ~connect_cycles
                         ~on_connect:(fun conn -> inflight.(c) <- Some (conn, deadline)) in
                     inflight.(c) <- None;
                     if workarounds then begin
                       reading.(f) <- reading.(f) - 1;
                       if writing.(f) && reading.(f) = 0 then wake_writer ()
                     end;
                     Samples.add lat (Clock.now clock - t0);
                     let v = Work.check_body buf len ~file:f ~bytes:file_bytes in
                     if v < floor || v > written.(f) then incr failed;
                     incr completed;
                     if !completed mod reads_per_write = 0 then wake_writer ();
                     if !completed = total then begin
                       t_end := Clock.now clock;
                       stop := true;
                       wake_writer ();
                       Pageout.stop pageout
                     end
                   done))
    done;
    ignore (Sched.spawn client.Host.sched ~name:"watchdog" (fun () ->
      while not !stop do
        Sched.sleep_us client.Host.sched watchdog_us;
        Array.iteri
          (fun c slot ->
             match slot with
             | Some (conn, deadline) when Clock.now clock > deadline ->
               inflight.(c) <- None;
               incr timeouts;
               Tcp.abort client.Host.tcp conn
             | _ -> ())
          inflight
      done));
    writer := Some (Sched.spawn server.Host.sched ~name:"writer" (fun () ->
      while not !stop && !writes < max_writes do
        while not !stop && !completed < (!writes + 1) * reads_per_write do
          writer_waiting := true;
          Sched.block_current server.Host.sched
        done;
        if not !stop then begin
          let f = write_files.(!writes) in
          if workarounds then begin
            writing.(f) <- true;
            while reading.(f) > 0 do
              writer_waiting := true;
              Sched.block_current server.Host.sched
            done
          end;
          let v = written.(f) + 1 in
          let data = Work.content ~file:f ~version:v ~bytes:file_bytes in
          let req = total + !writes in
          let t0 = Clock.now clock in
          written.(f) <- v;
          (* A write that raises is a failed operation; the run goes on. *)
          let spanned nm call =
            let sp = Spans.start spans nm ~req in
            Fun.protect ~finally:(fun () -> Spans.stop spans sp) call in
          (match
             spanned Spans.Fs_write (fun () -> Simple_fs.write fs ~name:(name f) data);
             spanned Spans.File_cache_invalidate (fun () ->
               File_cache.invalidate cache ~name:(name f))
           with
           | () -> committed.(f) <- v
           | exception _ -> incr write_failures);
          if workarounds then begin
            writing.(f) <- false;
            let blocked = Queue.create () in
            Queue.transfer waiting.(f) blocked;
            ignore (Sim.after_us sim 0. (fun () ->
              Queue.iter (Sched.unblock client.Host.sched) blocked))
          end;
          let took = Clock.now clock - t0 in
          Samples.add wlat took;
          Sched.sleep_us server.Host.sched (Samples.us took +. write_gaps.(!writes));
          incr writes
        end
      done));
    Host.run_all [ client; server ];
    hog_spans := Spans.off;
    let after = Layers.snapshot fx in
    let ops = total + !writes in
    let sim_s = Samples.us (!t_end - t_start) /. 1e6 in
    let sim_rps = float_of_int !completed /. sim_s in
    let p = Work.percentiles lat [ 0.5; 0.99 ]
    and w = Work.percentiles wlat [ 0.5; 0.9; 0.99 ] in
    let p50, p99 = (List.nth p 0, List.nth p 1)
    and w50, w90, w99 = (List.nth w 0, List.nth w 1, List.nth w 2) in
    { Work.attempted = ops;
      failed = !failed + (total - !completed) + !write_failures;
      e2e = [ ("sim_rps", sim_rps); ("lat_p50_us", p50); ("lat_p99_us", p99);
              ("aux_p50_us", w50); ("aux_p90_us", w90) ];
      report = [ ("sim_rps", sim_rps, "1/s"); ("lat_p50_us", p50, "us");
                 ("lat_p99_us", p99, "us"); ("write_p50_us", w50, "us");
                 ("write_p90_us", w90, "us"); ("write_p99_us", w99, "us");
                 ("writes", float_of_int !writes, "count");
                 ("write_failures", float_of_int !write_failures, "count");
                 ("read_timeouts", float_of_int !timeouts, "count");
                 ("read_check_failures", float_of_int !failed, "count") ];
      layers =
        Layers.metrics ~ops ~hog_oom:(!hog_oom - oom0) before after;
      tails = [ ("lat_p99_us", Work.beyond lat 0.99); ("aux_p90_us", Work.beyond wlat 0.9) ] } in
  { Work.clock; span_capacity = (total * 12) + (2 * max_writes) + 100_000; run }
