(* http_smp: a closed loop of 16 client strands doing connect /
   GET /index.html (2 KB, cached) / drain / close between two 4-CPU
   hosts linked by T3 DMA at 622 Mb/s (the bench/b_smp.ml fixture).

   Why: TCP, HTTP, the per-CPU scheduler (stealing, wakeup IPIs),
   netif receive sharding and the trusted-fast demux do almost all the
   work; VM and FS do almost none (the file is cached before timing).

   The seed draws each client's start offset and its think times
   (exponential, mean [think_us]) — the only inputs a closed loop has.
   The auxiliary latency is the connect phase of each request. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Nic = Spin_machine.Nic
module Sched = Spin_sched.Sched

let cpus = 4
let clients = 16
let per_client = 640
let think_us = 50.
let body_bytes = 2048
let addr_server = Ip.addr_of_quad 10 0 1 1
let addr_client = Ip.addr_of_quad 10 0 1 2

let setup ~seed =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ~cpus sim ~name:"www" ~addr:addr_server in
  let client = Host.create ~cpus sim ~name:"client" ~addr:addr_client in
  let client_nic, server_nic =
    Host.wire ~mbps:622. client server ~kind:Nic.T3 in
  let disk = Machine.add_disk ~blocks:65536 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys
      server.Host.machine server.Host.sched disk in
  let served = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:65536 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Work.content ~file:0 ~version:0 ~bytes:body_bytes);
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    served := Some (cache, Http.create server.Host.machine server.Host.sched
                             server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let cache, http = Option.get !served in
  let request = Work.request "index.html" in
  (* Warm the file cache outside the timed phase. *)
  let warm_ok = ref false in
  ignore (Sched.spawn client.Host.sched ~name:"warm" (fun () ->
    let buf = Bytes.create 8192 in
    let len = Work.get Spans.off ~req:0 clock client.Host.tcp ~dst:addr_server
        ~request ~buf ~connect_cycles:(ref 0) in
    warm_ok := Work.check_body buf len ~file:0 ~bytes:body_bytes = 0));
  Host.run_all [ client; server ];
  if not !warm_ok then failwith "http_smp: warm-up request failed";
  let fx = {
    Layers.server; client; server_nic; client_nic; disk = Some disk;
    http = Some http; file_cache = Some cache; block_cache = Some bc;
    pageout = None } in
  let st = Work.rng seed in
  let offsets = Array.init clients (fun _ -> Random.State.float st 200.) in
  let thinks =
    Array.init clients (fun _ ->
      Array.init per_client (fun _ -> Work.exponential st ~mean:think_us)) in
  let total = clients * per_client in
  let run spans =
    let lat = Samples.create total and conn = Samples.create total in
    let failed = ref 0 and completed = ref 0 in
    let t_end = ref 0 in
    let before = Layers.snapshot fx in
    let t_start = Clock.now clock in
    for c = 0 to clients - 1 do
      ignore (Sched.spawn client.Host.sched ~name:(Printf.sprintf "client-%d" c)
                (fun () ->
                   let buf = Bytes.create 8192 in
                   let connect_cycles = ref 0 in
                   Sched.sleep_us client.Host.sched offsets.(c);
                   for i = 0 to per_client - 1 do
                     Sched.sleep_us client.Host.sched thinks.(c).(i);
                     let t0 = Clock.now clock in
                     let len =
                       Work.get spans ~req:((c * per_client) + i) clock
                         client.Host.tcp ~dst:addr_server ~request ~buf
                         ~connect_cycles in
                     Samples.add lat (Clock.now clock - t0);
                     Samples.add conn !connect_cycles;
                     if Work.check_body buf len ~file:0 ~bytes:body_bytes <> 0
                     then incr failed;
                     incr completed;
                     if !completed = total then t_end := Clock.now clock
                   done))
    done;
    Host.run_all [ client; server ];
    let after = Layers.snapshot fx in
    let sim_s = Samples.us (!t_end - t_start) /. 1e6 in
    let sim_rps = float_of_int !completed /. sim_s in
    let p = Work.percentiles lat [ 0.5; 0.99 ]
    and c = Work.percentiles conn [ 0.5; 0.9; 0.99 ] in
    let p50, p99 = (List.nth p 0, List.nth p 1)
    and c50, c90, c99 = (List.nth c 0, List.nth c 1, List.nth c 2) in
    let failed = !failed + (total - !completed) in
    { Work.attempted = total; failed;
      e2e = [ ("sim_rps", sim_rps); ("lat_p50_us", p50); ("lat_p99_us", p99);
              ("aux_p50_us", c50); ("aux_p90_us", c90) ];
      report = [ ("sim_rps", sim_rps, "1/s"); ("lat_p50_us", p50, "us");
                 ("lat_p99_us", p99, "us"); ("connect_p50_us", c50, "us");
                 ("connect_p90_us", c90, "us"); ("connect_p99_us", c99, "us") ];
      layers = Layers.metrics ~ops:total before after;
      tails = [ ("lat_p99_us", Work.beyond lat 0.99); ("aux_p90_us", Work.beyond conn 0.9) ] } in
  { Work.clock; span_capacity = total * 12; run }
