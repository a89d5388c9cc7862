(* The repository benchmark.

     spinbench --workload http_smp|udp_open|web_mem|web_mem_race
               --seed N --seconds S --trace 0|1

   One run repeats the workload for about [S] host seconds. Each
   repetition builds a fresh fixture from the seed, then runs the
   workload's fixed, seed-generated input (the measured phase).
   Virtual-time metrics come from the simulated 133 MHz Alpha and must
   be bit-identical in every repetition; host metrics (set-up CPU
   seconds, ops per host CPU second, minor words per op) are medians
   over the repetitions.
   The table printed above the result line shows every metric under
   the workload's own names.

   With [--trace 1] repetitions alternate untraced and traced (spans
   recorded around every call the benchmark makes); the run prints the
   per-layer counters and span summaries, checks that both kinds of
   repetition gave the same virtual metrics, and reports the host-time
   cost of tracing.

   The last line of standard output is the result object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

let workloads =
  [ ("http_smp", Http_smp.setup); ("udp_open", Udp_open.setup);
    ("web_mem", Web_mem.setup ~workarounds:true);
    (* Not in BENCHMARK.json: web_mem without its work-rounds, kept to
       reproduce the stack defects they avoid (its reads fail). *)
    ("web_mem_race", Web_mem.setup ~workarounds:false) ]

let end_to_end_units =
  [ ("setup_s", "s"); ("sim_rps", "1/s"); ("lat_p50_us", "us");
    ("lat_p99_us", "us"); ("aux_p50_us", "us"); ("aux_p90_us", "us");
    ("host_words_per_op", "words") ]

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if name = "host_ops_per_s" then "1/s"
  else if ends "_per_op" then "count/op"
  else if ends "_frac" then "ratio"
  else if ends "_cycles" then "cycles"
  else if ends "_ns_p50" then "ns"
  else if ends "_us" then "us"
  else "count"

let wall_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Host time is the benchmark process's CPU time (user + system): on a
   shared machine wall time also counts the time other tenants held the
   CPU. Even CPU time moves by 20% between runs there, so ops per host
   second is reported with the per-layer metrics, not gated. *)
let cpu_s = Sys.time

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type rep = {
  traced : bool;
  setup_s : float;
  host_s : float;
  words : float;
  r : Work.result;
  spans : Spans.t;
}

(* One fixture build takes 5 to 70 ms of CPU, and a single build's
   time depends on what the garbage collector happens to do during it.
   So each repetition builds its fixture back to back until
   [setup_budget_s] of CPU time has passed (at least twice), records
   the mean time per build, and runs on the last build. setup_s is the
   median of those means over the measured repetitions, which are
   spread over the whole run: the speed of a shared host drifts over
   seconds, and one block of builds would sample a single moment of
   it. The budget is kept small because the stack never frees a
   simulation's tracer (Trace keeps every clock it has seen), so every
   build leaves its fixture on the heap until the process exits. *)
let setup_budget_s = 0.05

let run_rep setup ~seed ~traced =
  let t0 = cpu_s () in
  let rec build n =
    let prep = setup ~seed in
    let spent = cpu_s () -. t0 in
    if n >= 2 && spent >= setup_budget_s then (prep, spent /. float_of_int n)
    else build (n + 1) in
  let prep, setup_s = build 1 in
  let spans =
    if traced then Spans.create prep.Work.clock ~capacity:prep.Work.span_capacity
    else Spans.off in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let h0 = cpu_s () in
  let r = prep.Work.run spans in
  let host_s = cpu_s () -. h0 in
  let words = Gc.minor_words () -. w0 in
  { traced; setup_s; host_s; words; r; spans }

(* Repeat until the measured budget is spent. Repetition 0 is a
   warm-up: the process's first pass pays one-time lazy initialisation
   (a few words of allocation, cold host caches), so it is checked like
   the others but left out of the host medians. After it come at least
   three measured repetitions, alternating untraced and traced when
   tracing. *)
let run_reps setup ~seed ~seconds ~trace =
  let min_reps = if trace then 5 else 4 in
  let start = wall_s () in
  let rec go i acc =
    let elapsed = wall_s () -. start in
    let last = match acc with r :: _ -> r.host_s | [] -> 0. in
    if i >= min_reps && elapsed +. last > seconds then List.rev acc
    else
      go (i + 1)
        (run_rep setup ~seed ~traced:(trace && i > 0 && i mod 2 = 0) :: acc) in
  match go 0 [] with
  | warm :: measured -> (warm, measured)
  | [] -> assert false

let span_metrics spans =
  List.concat_map
    (fun (nm, s) ->
       let k suffix = "span." ^ Spans.to_string nm ^ suffix in
       [ (k ".count", float_of_int s.Spans.count);
         (k ".p50_cycles", float_of_int s.Spans.p50_cycles);
         (k ".p99_cycles", float_of_int s.Spans.p99_cycles);
         (k ".host_ns_p50", float_of_int s.Spans.host_ns_p50) ]
       @ (if nm = Spans.Http_request then
            [ (k ".self_p50_cycles", float_of_int s.Spans.self_p50_cycles) ]
          else []))
    (Spans.summarize spans)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) u)
         metrics) in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let usage () =
  prerr_endline
    "usage: spinbench --workload (http_smp|udp_open|web_mem|web_mem_race) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage () in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None -> usage () in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let warm, measured = run_reps setup ~seed:!seed ~seconds:!seconds ~trace:traced in
  let reps = warm :: measured in
  let first = warm.r in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* Steadiness: every repetition, traced or not, gives bit-identical
     virtual metrics and counters; untraced ones allocate identically. *)
  List.iteri
    (fun i rp ->
       if rp.r.Work.e2e <> first.Work.e2e || rp.r.Work.layers <> first.Work.layers
          || rp.r.Work.failed <> first.Work.failed then
         problem "repetition %d (%s) gave different virtual metrics" i
           (if rp.traced then "traced" else "untraced"))
    reps;
  let untraced = List.filter (fun rp -> not rp.traced) measured in
  let tracedr = List.filter (fun rp -> rp.traced) measured in
  let words_per_op rp = rp.words /. float_of_int rp.r.Work.attempted in
  (match untraced with
   | a :: rest ->
     List.iter
       (fun b ->
          if words_per_op b <> words_per_op a then
            problem "host_words_per_op differs between repetitions (%.17g vs %.17g)"
              (words_per_op a) (words_per_op b))
       rest
   | [] -> ());
  List.iter
    (fun (name, beyond) ->
       if beyond < 10 then problem "%s rests on %d samples beyond it (< 10)" name beyond)
    first.Work.tails;
  List.iter
    (fun rp ->
       if Spans.overflow rp.spans > 0 || Spans.unclosed rp.spans > 0 then
         problem "span store overflowed or left spans open")
    tracedr;
  let attempted = List.fold_left (fun a rp -> a + rp.r.Work.attempted) 0 reps in
  let failed = List.fold_left (fun a rp -> a + rp.r.Work.failed) 0 reps in
  let setup_s = median (List.map (fun rp -> rp.setup_s) measured) in
  let host_s = median (List.map (fun rp -> rp.host_s) untraced) in
  let ops_per_s = float_of_int first.Work.attempted /. host_s in
  let words = median (List.map words_per_op untraced) in
  (* The human-readable table: the workload's own metric names. *)
  Printf.printf "workload %s  seed %d  repetitions %d (%d traced)\n" !workload !seed
    (List.length reps) (List.length tracedr);
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u)
    (first.Work.report
     @ [ ("setup_s", setup_s, "s"); ("host_ops_per_s", ops_per_s, "1/s");
         ("host_words_per_op", words, "words");
         ("fail_frac",
          float_of_int first.Work.failed /. float_of_int first.Work.attempted, "") ]);
  Printf.printf "  samples beyond each tail: %s\n"
    (String.concat ", "
       (List.map (fun (n, b) -> Printf.sprintf "%s %d" n b) first.Work.tails));
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) (List.rev !problems);
  let correct = !problems = [] && failed = 0 in
  let metrics =
    if not traced then
      let v = function
        | "setup_s" -> setup_s
        | "host_words_per_op" -> words
        | n -> List.assoc n first.Work.e2e in
      List.map (fun (n, u) -> (n, v n, u)) end_to_end_units
    else begin
      let last_traced = List.hd (List.rev tracedr) in
      let traced_s = median (List.map (fun rp -> rp.host_s) tracedr) in
      let layers =
        first.Work.layers @ span_metrics last_traced.spans
        @ [ ("host_ops_per_s", ops_per_s);
            ("trace.overhead_frac", (traced_s /. host_s) -. 1.) ] in
      List.map (fun (n, v) -> (n, v, layer_unit n)) layers
    end in
  print_result ~correct ~attempted ~failed metrics
