(* Schedule-fuzzing soak: the HTTP fixture of the load experiment plus
   sleepers and kthread synchronization, run under Sched_fuzz's random
   scheduler — one freshly built fixture per seed, so a seed names one
   schedule exactly.

     dune exec bench/main.exe -- fuzz --seeds 200
     dune exec bench/main.exe -- fuzz --replay 17

   A campaign runs seeds 1..N and exits nonzero on the first seed with
   invariant violations, after writing fuzz-artifacts/failing-seed.txt
   and a Chrome trace of the deterministic replay. *)

module Sched = Spin_sched.Sched
module Strand = Spin_sched.Strand
module Kthread = Spin_sched.Kthread
module Sched_fuzz = Spin_sched.Sched_fuzz
module Clock = Spin_machine.Clock
module Machine = Spin_machine.Machine
module Trace = Spin_machine.Trace
open Spin_net

(* Set by the main.exe argument parser. *)
let seeds = ref 50
let replay = ref None
let cpus : int option ref = ref None

let artifact_dir = "fuzz-artifacts"

(* The per-host input strands park forever waiting for packets; being
   blocked at quiescence is their job, not a lost wakeup. *)
let daemon s =
  let name = s.Strand.name in
  let suffix = "-input" in
  let n = String.length name and k = String.length suffix in
  n >= k && String.sub name (n - k) k = suffix

let attach_host ~seed host =
  Sched_fuzz.attach
    ~cpus:(Array.to_list host.Host.machine.Machine.cpus)
    ~dispatcher:host.Host.dispatcher
    ~seed host.Host.sched

(* One seed = one schedule of this workload: 4 HTTP client loops
   against the in-kernel server (half of them hitting the dynamic
   /live generator), timed sleepers on the server, a mutex/condvar
   producer-consumer pair on the client — and a swapper strand that
   hot-swaps the content generator twice, mid-request-storm, so the
   fuzzer can preempt inside the swap window itself. *)
let run_seed ~seed ~traced =
  let clock, client, server, http = B_extra.web_fixture_full ?cpus:!cpus () in
  let tr = Trace.of_clock clock in
  if traced then Trace.enable tr;
  (* Distinct streams per host; both derived from the seed alone. *)
  let fz_client = attach_host ~seed client in
  let fz_server = attach_host ~seed:(seed lxor 0x5F3759DF) server in
  let swap = Spin.Swap.create server.Host.sched server.Host.dispatcher in
  let obj1, _ = B_swap.webgen ~version:1 http in
  let dom = ref (Spin_core.Kdomain.create_exn obj1) in
  Spin_core.Kdomain.initialize !dom;
  let stale_cap = Spin_core.Capability.mint ~owner:"WebGen" seed in
  let swap_errors = ref [] in
  ignore (Sched.spawn server.Host.sched ~name:"fuzz-swapper" (fun () ->
    for g = 2 to 3 do
      Sched.sleep_us server.Host.sched (float_of_int (150 * g));
      let obj, _ = B_swap.webgen ~version:g http in
      match
        Spin.Swap.hot_swap swap ~old_domain:!dom ~replacement:obj
          ~prepare:Spin_core.Kdomain.create
          ~activate:(fun d -> dom := d) ()
      with
      | Ok _ -> ()
      | Error e ->
        swap_errors :=
          Printf.sprintf "swap to generation %d failed: %s" g
            (Spin.Swap.error_to_string e)
          :: !swap_errors
    done));
  for c = 1 to 4 do
    let path = if c mod 2 = 0 then "live" else "index.html" in
    ignore (Sched.spawn client.Host.sched
              ~name:(Printf.sprintf "fuzz-client-%d" c) (fun () ->
      for _ = 1 to 5 do B_extra.http_get ~path clock client done))
  done;
  for i = 1 to 3 do
    ignore (Sched.spawn server.Host.sched
              ~name:(Printf.sprintf "fuzz-sleeper-%d" i) (fun () ->
      for _ = 1 to 5 do
        Sched.sleep_us server.Host.sched (7.5 *. float_of_int i);
        Sched.yield server.Host.sched
      done))
  done;
  let mutex = Kthread.Mutex.create () in
  let cond = Kthread.Condition.create () in
  let queue = Queue.create () in
  let consumed = ref 0 in
  let items = 20 in
  ignore (Sched.spawn client.Host.sched ~name:"fuzz-producer" (fun () ->
    for i = 1 to items do
      Kthread.Mutex.with_lock client.Host.sched mutex (fun () ->
        Queue.add i queue;
        Kthread.Condition.signal client.Host.sched cond);
      Sched.yield client.Host.sched
    done));
  for c = 1 to 2 do
    ignore (Sched.spawn client.Host.sched
              ~name:(Printf.sprintf "fuzz-consumer-%d" c) (fun () ->
      let continue = ref true in
      while !continue do
        Kthread.Mutex.with_lock client.Host.sched mutex (fun () ->
          while Queue.is_empty queue && !consumed < items do
            Kthread.Condition.wait client.Host.sched mutex cond
          done;
          if Queue.is_empty queue then continue := false
          else begin
            ignore (Queue.pop queue);
            incr consumed;
            if !consumed >= items then
              Kthread.Condition.broadcast client.Host.sched cond
          end)
      done))
  done;
  Host.run_all [ client; server ];
  Sched_fuzz.check_quiescence ~exempt:daemon fz_client;
  Sched_fuzz.check_quiescence ~exempt:daemon fz_server;
  if !consumed <> items then
    (* The workload itself lost work — count it with the violations. *)
    Printf.printf "  seed %d: consumer finished %d/%d items\n" seed !consumed
      items;
  (* Swap-specific invariants, checked at quiescence: both swaps
     committed, no request was dropped or degraded while the gates
     were closed, the generation-1 capability died by epoch, and no
     dispatch is still marked in flight. *)
  let swap_violations = ref !swap_errors in
  let bad msg = swap_violations := msg :: !swap_violations in
  let st = Http.stats http in
  if st.Http.ok <> st.Http.requests then
    bad (Printf.sprintf "dropped requests: %d ok of %d"
           st.Http.ok st.Http.requests);
  if st.Http.fallbacks > 0 then
    bad (Printf.sprintf "%d degraded responses during swap" st.Http.fallbacks);
  (match Spin_core.Capability.deref stale_cap with
   | exception Spin_core.Capability.Revoked _ -> ()
   | _ -> bad "stale generation-1 capability survived the swaps");
  Spin_core.Dispatcher.audit client.Host.dispatcher bad;
  Spin_core.Dispatcher.audit server.Host.dispatcher bad;
  (* The protocol stack's filters (ethertype, protocol and port demux)
     install as verified bytecode, so every seed soaks the trusted-fast
     path: a campaign where it never fired, or where the verifier
     turned an install away, means the stack silently fell back to
     guarded closures. *)
  if Spin_core.Dispatcher.trusted_total server.Host.dispatcher = 0 then
    bad "no trusted-fast dispatches on the server: bytecode path inactive";
  let rejected =
    Spin_core.Dispatcher.verifier_rejections client.Host.dispatcher
    + Spin_core.Dispatcher.verifier_rejections server.Host.dispatcher in
  if rejected > 0 then
    bad (Printf.sprintf "%d bytecode install(s) rejected by the verifier"
           rejected);
  let violations =
    List.rev !swap_violations
    @ Sched_fuzz.violations fz_client @ Sched_fuzz.violations fz_server in
  let stats = [ Sched_fuzz.stats fz_client; Sched_fuzz.stats fz_server ] in
  Sched_fuzz.detach fz_client;
  Sched_fuzz.detach fz_server;
  (* Detaching uninstalls the fuzzer's own strand trackers: audit once
     more so a removal that left a stale dispatch plan shows up. *)
  let detached = ref [] in
  let note msg = detached := ("after detach: " ^ msg) :: !detached in
  Spin_core.Dispatcher.audit client.Host.dispatcher note;
  Spin_core.Dispatcher.audit server.Host.dispatcher note;
  (violations @ List.rev !detached, stats, tr)

let write_artifacts ~seed violations =
  (try Sys.mkdir artifact_dir 0o755 with Sys_error _ -> ());
  let seed_file = Filename.concat artifact_dir "failing-seed.txt" in
  let oc = open_out seed_file in
  Printf.fprintf oc "seed %d\nreplay: dune exec bench/main.exe -- fuzz --replay %d\n\n"
    seed seed;
  List.iter (fun v -> Printf.fprintf oc "%s\n" v) violations;
  close_out oc;
  (* The schedule is a pure function of the seed: re-run it traced and
     keep the Chrome timeline of the failing interleaving. *)
  let _, _, tr = run_seed ~seed ~traced:true in
  let trace_file =
    Filename.concat artifact_dir (Printf.sprintf "seed-%d.trace.json" seed) in
  let oc = open_out trace_file in
  output_string oc (Trace.to_chrome_json tr);
  close_out oc;
  Printf.printf "  artifacts: %s, %s\n" seed_file trace_file

let report_seed ~seed (violations, _stats, _) =
  let total = List.length violations in
  if total > 0 then begin
    Printf.printf "  seed %d: %d violation(s)\n" seed total;
    List.iter (fun v -> Printf.printf "    %s\n" v) violations
  end;
  total

let run () =
  Report.header "Schedule fuzzing (seeded, deterministic replay)";
  (match !cpus with
   | Some n when n > 1 ->
     Printf.printf "  hosts built with %d CPUs: the seed also drives which\n" n;
     Printf.printf "  CPU advances and every steal decision\n"
   | _ -> ());
  match !replay with
  | Some seed ->
    Printf.printf "  replaying seed %d\n" seed;
    let result = run_seed ~seed ~traced:false in
    let bad = report_seed ~seed result in
    if bad = 0 then Printf.printf "  seed %d: clean\n" seed
    else begin
      write_artifacts ~seed (let v, _, _ = result in v);
      Report.write_json ();
      exit 1
    end
  | None ->
    let n = !seeds in
    let decisions = ref 0 and injected = ref 0 in
    let failed = ref None in
    let s = ref 1 in
    while !failed = None && !s <= n do
      let seed = !s in
      let (violations, stats, _) as result = run_seed ~seed ~traced:false in
      List.iter
        (fun st ->
          decisions := !decisions + st.Sched_fuzz.decisions;
          injected := !injected + st.Sched_fuzz.injected_preempts)
        stats;
      if report_seed ~seed result > 0 then failed := Some (seed, violations);
      incr s
    done;
    let ran = !s - 1 in
    Printf.printf
      "  %d seed(s): %d scheduling decisions, %d injected preemptions\n"
      ran !decisions !injected;
    Report.metric ~name:"seeds run" ~unit_:"count" (float_of_int ran);
    Report.metric ~name:"scheduling decisions" ~unit_:"count"
      (float_of_int !decisions);
    (match !failed with
     | None -> Printf.printf "  no invariant violations\n"
     | Some (seed, violations) ->
       write_artifacts ~seed violations;
       Report.write_json ();
       exit 1)
