(* Host allocation on the simulator's hot paths. With tracing off, a
   clock charge with nothing due, a sole-handler raise (trusted-fast
   or the primary's fast path) and a scheduling point with nothing to
   steal allocate no minor words at all; and the dispatch plan an
   event caches at install time takes exactly the path the per-raise
   decision used to take, through every kind of handler-set change. *)

open Alcotest
module Dispatcher = Spin_core.Dispatcher
module Handler_spec = Dispatcher.Handler_spec
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Machine = Spin_machine.Machine
module Sched = Spin_sched.Sched

let iterations = 10_000

(* Minor words per call of [f] over [iterations] calls, after a warm-up
   that lets every lazily built structure settle. The loop's own cost
   (none, but measured rather than assumed) is subtracted. *)
let words_per_op f =
  let measure f =
    let before = Gc.minor_words () in
    for _ = 1 to iterations do f () done;
    Gc.minor_words () -. before in
  for _ = 1 to 1000 do f () done;
  let overhead = measure ignore in
  (measure f -. overhead) /. float_of_int iterations

let check_no_alloc what f =
  check (float 0.) (what ^ ": minor words per op") 0. (words_per_op f)

(* ------------------------------------------------------------------ *)
(* Zero-allocation hot paths                                          *)
(* ------------------------------------------------------------------ *)

let test_charge_nothing_due () =
  let m = Machine.create ~name:"alloc" ~mem_mb:4 ~cpus:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let _sched = Sched.create ~intr:m.Machine.intr m.Machine.sim d in
  (* A pending event far in the future (the loops below advance the
     clock by well under a million cycles): the engine's hook runs on
     every charge and finds nothing due. *)
  let far = Sim.after m.Machine.sim 1_000_000_000 ignore in
  let clock = m.Machine.clock in
  check_no_alloc "Clock.charge" (fun () -> Clock.charge clock 1);
  check_no_alloc "Clock.charge at parallel 3" (fun () ->
      Clock.set_parallel clock 3;
      Clock.charge clock 2;
      Clock.set_parallel clock 1);
  check int "the far event is still pending" 1 (Sim.pending m.Machine.sim);
  Sim.cancel m.Machine.sim far

type ev = { port : int }

let layout : ev Ebc.layout =
  Ebc.layout ~name:"Alloc.Ev" ~fields:[ ("port", Ty.Int) ]
    ~read:(fun e _ -> e.port) ()

let declare d =
  Dispatcher.declare d ~name:"Alloc.Ev" ~owner:"test" ~layout
    ~combine:(fun _ -> ())
    ~allow_remove_primary:(fun ~requester:_ -> true)
    (fun (_ : ev) -> ())

let test_trusted_fast_raise () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let e = declare d in
  (match Dispatcher.remove_primary e ~requester:"test" with
   | Ok () -> ()
   | Error `Denied -> fail "remove_primary denied");
  let hits = ref 0 in
  ignore
    (Dispatcher.ok_exn
       (Dispatcher.install e ~installer:"ext"
          ~spec:(Handler_spec.verified (Ebc.match_field ~slot:0 7))
          (fun _ -> incr hits)));
  let hit = { port = 7 } and miss = { port = 8 } in
  check_no_alloc "trusted-fast raise, predicate true" (fun () ->
      Dispatcher.raise_event e hit);
  check_no_alloc "trusted-fast raise, predicate false" (fun () ->
      Dispatcher.raise_event e miss);
  check bool "the handler ran" true (!hits > iterations);
  check bool "every raise took the trusted path" true
    ((Dispatcher.stats e).Dispatcher.trusted_fast = !hits)

let test_fast_path_primary () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let e =
    Dispatcher.declare d ~name:"Alloc.Primary" ~owner:"test"
      (fun (x : int) -> x + 1) in
  let sum = ref 0 in
  check_no_alloc "fast-path raise on the primary" (fun () ->
      sum := !sum + Dispatcher.raise_event e 41);
  let st = Dispatcher.stats e in
  check int "every raise took the fast path" st.Dispatcher.raises
    st.Dispatcher.fast_path

(* Four CPUs, a strand parked on each: nothing is runnable and no CPU
   holds two strands, so the scheduling point drains the (empty) IPI
   inboxes, decides there is nothing to steal and nothing to run. *)
let test_step_nothing_to_steal () =
  let m = Machine.create ~name:"alloc" ~mem_mb:4 ~cpus:4 () in
  let d = Dispatcher.create m.Machine.clock in
  let s = Sched.create ~intr:m.Machine.intr m.Machine.sim d in
  for cpu = 0 to 3 do
    let st =
      Sched.spawn s ~name:(Printf.sprintf "parked%d" cpu) (fun () ->
          Sched.block_current s) in
    Sched.set_affinity s st (Some cpu)
  done;
  while Sched.step s do () done;
  check int "nothing left runnable" 0 (Sched.runnable_count s);
  check_no_alloc "4-CPU Sched.step" (fun () -> ignore (Sched.step s))

(* ------------------------------------------------------------------ *)
(* Plan transitions                                                   *)
(* ------------------------------------------------------------------ *)

(* The per-raise decision the plan replaced, restated over the public
   view of the handler set: a sole synchronous handler with nothing
   indexed is trusted-fast if verified, fast if it has no guard and no
   bound; anything else takes the general path. *)
type path = Trusted | Fast | General

let path_to_string = function
  | Trusted -> "trusted" | Fast -> "fast" | General -> "general"

let expected_path d ~primary =
  let specs =
    List.filter (fun i -> i.Handler_spec.i_active)
      (Dispatcher.installed_specs d ~installer:"ext") in
  match primary, specs with
  | true, [] -> Fast
  | false, [ i ]
    when (not i.Handler_spec.i_async) && not i.Handler_spec.i_indexed ->
    if i.Handler_spec.i_trusted then Trusted
    else if i.Handler_spec.i_guards = 0 && i.Handler_spec.i_bound = None then
      Fast
    else General
  | _ -> General

(* Which path one raise took, read off the counters it moved. *)
let observed_path e arg =
  let before = Dispatcher.stats e in
  ignore (Dispatcher.raise_event e arg);
  let after = Dispatcher.stats e in
  if after.Dispatcher.trusted_fast > before.Dispatcher.trusted_fast
     && after.Dispatcher.invocations = before.Dispatcher.invocations + 1
     && after.Dispatcher.fast_path = before.Dispatcher.fast_path
  then Trusted
  else if after.Dispatcher.fast_path = before.Dispatcher.fast_path + 1 then Fast
  else General

let test_plan_transitions () =
  let d = Dispatcher.create (Clock.create Cost.alpha_133) in
  let e =
    Dispatcher.declare d ~name:"Alloc.Plan" ~owner:"test" ~layout
      ~index:(fun ev -> ev.port) ~combine:(List.fold_left ( + ) 0)
      ~allow_remove_primary:(fun ~requester:_ -> true)
      (fun (_ : ev) -> 0) in
  let primary = ref true in
  let arg = { port = 7 } in
  let step what =
    let want = expected_path d ~primary:!primary in
    check string (what ^ ": path") (path_to_string want)
      (path_to_string (observed_path e arg));
    Dispatcher.audit d (fun msg -> failf "%s: audit: %s" what msg) in
  let remove_primary () =
    (match Dispatcher.remove_primary e ~requester:"test" with
     | Ok () -> ()
     | Error `Denied -> fail "remove_primary denied");
    primary := false in
  step "primary only";
  let trusted =
    Dispatcher.ok_exn
      (Dispatcher.install e ~installer:"ext"
         ~spec:(Handler_spec.verified (Ebc.match_field ~slot:0 7))
         (fun _ -> 1)) in
  step "primary and a verified handler";
  remove_primary ();
  step "verified handler alone";
  Dispatcher.add_guard trusted (fun _ -> true);
  step "verified handler demoted by a guard";
  Dispatcher.uninstall e trusted;
  step "no handler at all";
  let plain =
    Dispatcher.ok_exn (Dispatcher.install e ~installer:"ext" (fun _ -> 2)) in
  step "unguarded extension alone";
  let indexed =
    Dispatcher.ok_exn
      (Dispatcher.install e ~installer:"ext" ~spec:(Handler_spec.indexed 7)
         (fun _ -> 3)) in
  step "extension plus an indexed handler";
  Dispatcher.uninstall e indexed;
  step "indexed handler uninstalled";
  Dispatcher.add_guard plain (fun _ -> true);
  step "guarded extension alone";
  Dispatcher.uninstall e plain;
  let bounded =
    Dispatcher.ok_exn
      (Dispatcher.install e ~installer:"ext"
         ~spec:(Handler_spec.bounded 1_000_000) (fun _ -> 4)) in
  step "bounded extension alone";
  Dispatcher.uninstall e bounded;
  let failing =
    Dispatcher.ok_exn
      (Dispatcher.install e ~installer:"ext" (fun _ -> failwith "boom")) in
  ignore failing;
  step "faulting extension (unlinked by the fault)";
  step "after the fault";
  Dispatcher.reinstate_primary e;
  primary := true;
  step "primary reinstated";
  ignore (Dispatcher.uninstall_installer d ~installer:"ext");
  step "installer swept"

let () =
  run "alloc"
    [ ( "zero-allocation",
        [ test_case "Clock.charge with nothing due" `Quick
            test_charge_nothing_due;
          test_case "trusted-fast raise" `Quick test_trusted_fast_raise;
          test_case "fast-path raise on the primary" `Quick
            test_fast_path_primary;
          test_case "4-CPU step with nothing to steal" `Quick
            test_step_nothing_to_steal ] );
      ( "dispatch plan",
        [ test_case "transitions match the per-raise decision" `Quick
            test_plan_transitions ] ) ]
