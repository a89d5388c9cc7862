(* udp_open: an open loop of 16-byte UDP echo requests between two
   1-CPU hosts over the 10 Mb/s Lance, the Table 5 path.

   Why: at the smallest packet, per-packet cost is the whole story —
   interrupts, traps, dispatch and the DMA copy; no TCP, no FS, no SMP.
   Half the 64 flows (source ports) go to a default [Udp.listen]
   endpoint, which dispatches trusted-fast; the other half go to a
   [~bound_cycles] endpoint on the policed closure path. A dispatcher
   change that speeds one path at the other's cost shows.

   One generator strand sends Poisson arrivals: first at the reference
   rate, then at the high rate, then up a ramp of offered rates. Each
   latency runs from the request's due time, so a late generator is
   charged for the stall it causes; how late it ran is reported. The
   seed draws the arrivals, each request's flow and which flows go to
   which endpoint. *)

open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched

let addr_server = Ip.addr_of_quad 10 0 2 1
let addr_client = Ip.addr_of_quad 10 0 2 2
let flows = 64
let first_flow_port = 40_000
let port_trusted = 7
let port_policed = 8
let bound_cycles = 100_000
let payload_bytes = 16
let limit_us = 2000.

(* The reference and high rates sit at about half and 7/8 of the knee
   Poisson arrivals put near 2200/s on this path; each gets 40000
   requests so its p99 rests on 400 samples beyond it. *)
let ref_rate = 1000.
let hi_rate = 1900.
let fixed_requests = 40_000

(* The ramp: 100/s steps (under 5% of the knee) of 10000 requests,
   ending after the first step whose p99 passes [stop_factor] times the
   limit, that loses an echo, or whose backlog grows. *)
let ramp = List.init 26 (fun i -> 1500. +. (100. *. float_of_int i))
let ramp_requests = 10_000
let stop_factor = 1.25

(* Idle time between steps, so one rate's backlog never leaks into the
   next. *)
let gap_us = 20_000.

let check_word seq = (seq * 0x9E3779B1) land 0x3FFF_FFFF_FFFF

type step = {
  rate : float;
  first : int;                 (* sequence number of the first request *)
  count : int;
  due : int array;             (* offsets from the step's start, cycles *)
}

(* The offered rate at which p99 reaches the limit, from the
   least-squares line through the ramp's (rate, p99) points: a single
   step's p99 decision flips with the seed, the line through all of
   them far less. *)
let fitted_max_ok points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let mx = sx /. n and my = sy /. n in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0. points in
  if n < 2. || sxy <= 0. then None
  else
    let b = sxy /. sxx in
    Some (mx +. ((limit_us -. my) /. b))

let setup ~seed =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create ~cpus:1 sim ~name:"echo" ~addr:addr_server in
  let client = Host.create ~cpus:1 sim ~name:"client" ~addr:addr_client in
  let client_nic, server_nic = Host.wire client server ~kind:Nic.Lance in
  let echo (d : Udp.datagram) =
    ignore (Udp.send_pkt server.Host.udp ~src_port:d.Udp.dst_port ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload) in
  ignore (Udp.listen server.Host.udp ~port:port_trusted ~installer:"echo" echo);
  ignore (Udp.listen server.Host.udp ~port:port_policed ~installer:"echo-bounded"
            ~bound_cycles echo);
  let fx = {
    Layers.server; client; server_nic; client_nic; disk = None; http = None;
    file_cache = None; block_cache = None; pageout = None } in
  (* Seeded inputs: which flows are policed, then every step's arrival
     offsets and per-request flow. *)
  let st = Work.rng seed in
  let order = Work.permutation st flows in
  let flow_port = Array.make flows port_trusted in
  Array.iteri (fun k f -> if k >= flows / 2 then flow_port.(f) <- port_policed) order;
  let steps, total =
    List.fold_left
      (fun (acc, first) (rate, count) ->
         let t = ref 0. in
         let due =
           Array.init count (fun _ ->
             t := !t +. Work.exponential st ~mean:(1e6 /. rate);
             Work.us_to_cycles !t) in
         ({ rate; first; count; due } :: acc, first + count))
      ([], 0)
      ((ref_rate, fixed_requests) :: (hi_rate, fixed_requests)
       :: List.map (fun r -> (r, ramp_requests)) ramp) in
  let steps = Array.of_list (List.rev steps) in
  let flow = Array.init total (fun _ -> Random.State.int st flows) in
  let run spans =
    let due = Array.make total (-1) in        (* absolute, once sent *)
    let span = Array.make total (-1) in
    let got = Bytes.make total '\000' in
    let lat = Array.make total 0 in
    let bad = ref 0 and received = ref 0 in
    let on_reply (d : Udp.datagram) =
      let p = d.Udp.payload in
      let ok =
        Pkt.length p = payload_bytes
        && begin
          let seq = Int64.to_int (Pkt.get_i64_le p 0) in
          seq >= 0 && seq < total && due.(seq) >= 0
          && Bytes.get got seq = '\000'
          && Int64.to_int (Pkt.get_i64_le p 8) = check_word seq
          && d.Udp.dst_port = first_flow_port + flow.(seq)
          && d.Udp.src_port = flow_port.(flow.(seq))
          && begin
            Bytes.set got seq '\001';
            lat.(seq) <- Clock.now clock - due.(seq);
            Spans.stop spans span.(seq);
            incr received;
            true
          end
        end in
      if not ok then incr bad in
    (match
       Dispatcher.install (Udp.packet_arrived client.Host.udp) ~installer:"bench"
         on_reply
     with
     | Ok _ -> ()
     | Error _ -> failwith "udp_open: client handler refused");
    let late = Samples.create total in
    let payload = Bytes.create payload_bytes in
    let sched = client.Host.sched in
    let nsteps = Array.length steps in
    let ran = ref 0 in
    let p50s = Array.make nsteps 0 and p90s = Array.make nsteps 0 in
    let p99s = Array.make nsteps 0 and samples = Array.make nsteps 0 in
    let lost = Array.make nsteps 0 and growing = Array.make nsteps false in
    (* A step's backlog grows when the last tenth of its requests wait,
       at the median, more than twice as long as its first half. *)
    let judge k =
      let s = steps.(k) in
      let sample lo hi =
        let a = Samples.create (hi - lo) in
        for i = s.first + lo to s.first + hi - 1 do
          if Bytes.get got i = '\001' then Samples.add a lat.(i)
        done;
        Samples.sorted a in
      let all = sample 0 s.count in
      samples.(k) <- Array.length all;
      lost.(k) <- s.count - samples.(k);
      p50s.(k) <- Samples.percentile all 0.5;
      p90s.(k) <- Samples.percentile all 0.9;
      p99s.(k) <- Samples.percentile all 0.99;
      growing.(k) <-
        Samples.percentile (sample (s.count * 9 / 10) s.count) 0.5
        > 2 * Samples.percentile (sample 0 (s.count / 2)) 0.5 in
    let passes k =
      lost.(k) = 0 && not growing.(k) && Samples.us p99s.(k) <= limit_us in
    let before = Layers.snapshot fx in
    let t_start = Clock.now clock in
    ignore (Sched.spawn sched ~name:"generator" (fun () ->
      let continue = ref true in
      while !continue && !ran < nsteps do
        let k = !ran in
        let s = steps.(k) in
        let start = Clock.now clock in
        for j = 0 to s.count - 1 do
          let seq = s.first + j in
          let d = start + s.due.(j) in
          let now = Clock.now clock in
          if d > now then Sched.sleep_us sched (Samples.us (d - now));
          Samples.add late (max 0 (Clock.now clock - d));
          due.(seq) <- d;
          span.(seq) <- Spans.start spans ~at:d Spans.Udp_rtt ~req:seq;
          Bytes.set_int64_le payload 0 (Int64.of_int seq);
          Bytes.set_int64_le payload 8 (Int64.of_int (check_word seq));
          let f = flow.(seq) in
          if not (Udp.send client.Host.udp ~src_port:(first_flow_port + f)
                    ~dst:addr_server ~port:flow_port.(f) payload)
          then incr bad
        done;
        Sched.sleep_us sched gap_us;
        judge k;
        ran := k + 1;
        if k >= 2 then
          continue :=
            lost.(k) = 0 && not growing.(k)
            && Samples.us p99s.(k) <= stop_factor *. limit_us
      done));
    Host.run_all [ client; server ];
    let t_end = Clock.now clock in
    let after = Layers.snapshot fx in
    let ran = !ran in
    let attempted = steps.(ran - 1).first + steps.(ran - 1).count in
    let lost_total = attempted - !received in
    (* Steps 0 and 1 are the reference and high rates; the ramp
       follows. The literal answer is the highest ramp rate passing
       before the first that fails. *)
    let ramp_run = List.init (ran - 2) (fun i -> i + 2) in
    let max_ok_step =
      List.fold_left
        (fun (best, ok) k -> if ok && passes k then (steps.(k).rate, true) else (best, false))
        (0., true) ramp_run
      |> fst in
    let max_ok =
      match
        fitted_max_ok
          (List.map (fun k -> (steps.(k).rate, Samples.us p99s.(k))) ramp_run)
      with
      | Some r -> r
      | None -> max_ok_step in
    let us = Samples.us in
    let late_p99 = us (Samples.percentile (Samples.sorted late) 0.99) in
    let sim_s = us (t_end - t_start) /. 1e6 in
    { Work.attempted; failed = lost_total + !bad;
      e2e = [ ("sim_rps", max_ok); ("lat_p50_us", us p50s.(0));
              ("lat_p99_us", us p99s.(0)); ("aux_p50_us", us p50s.(1));
              ("aux_p90_us", us p90s.(1)) ];
      report =
        [ ("max_ok_rate", max_ok, "1/s"); ("max_ok_step", max_ok_step, "1/s");
          ("lat_p50_us", us p50s.(0), "us"); ("lat_p99_us", us p99s.(0), "us");
          ("lat_p50_us_hi", us p50s.(1), "us"); ("lat_p90_us_hi", us p90s.(1), "us");
          ("lat_p99_us_hi", us p99s.(1), "us");
          ("completed_per_sim_s", float_of_int !received /. sim_s, "1/s");
          ("gen_late_p99_us", late_p99, "us") ]
        @ List.map
            (fun k ->
               (Printf.sprintf "p99_us@%.0f%s" steps.(k).rate
                  (if passes k then "" else " (over)"),
                us p99s.(k), "us"))
            ramp_run;
      layers =
        Layers.metrics ~ops:attempted ~udp_lost:lost_total
          ~gen_late_p99_us:late_p99 before after;
      tails = [ ("lat_p99_us", Samples.beyond samples.(0) 0.99);
                ("aux_p90_us", Samples.beyond samples.(1) 0.9) ] } in
  { Work.clock; span_capacity = total; run }
