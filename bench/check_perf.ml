(* The CI perf gate: compares freshly measured benchmark metrics
   against the checked-in reference and fails the build when a gated
   metric regresses by more than the tolerance. Most gated rows are
   latencies (lower is better); the engine experiment also gates
   counted throughput proxies where a DROP is the regression.

     dune exec bench/check_perf.exe -- \
       bench/table5_reference.json BENCH_load.json

   Reads the spin-bench/1 schema that [Report.write_json] emits; the
   hand-rolled parser covers exactly that writer's output (one object
   of string/number fields per result, backslash escapes in strings)
   so the gate needs no JSON library. *)

let tolerance = 0.10

type metric = {
  experiment : string;
  name : string;
  value : float;
}

exception Parse_error of string

let parse_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while !pos < len
          && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do incr pos done in
  let expect c =
    skip_ws ();
    if !pos < len && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c) in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= len then fail "dangling escape";
        (match s.[!pos] with
         | 'u' ->
           if !pos + 4 >= len then fail "short unicode escape";
           let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
           Buffer.add_char buf (Char.chr (code land 0xff));
           pos := !pos + 5
         | 'n' -> Buffer.add_char buf '\n'; incr pos
         | 't' -> Buffer.add_char buf '\t'; incr pos
         | c -> Buffer.add_char buf c; incr pos);
        go ()
      | c -> Buffer.add_char buf c; incr pos; go () in
    go ();
    Buffer.contents buf in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while !pos < len
          && (match s.[!pos] with
              | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
              | _ -> false)
    do incr pos done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub s start (!pos - start)) in
  let parse_result () =
    expect '{';
    let experiment = ref "" and name = ref "" and value = ref nan in
    let rec fields () =
      let key = parse_string () in
      expect ':';
      (match key with
       | "experiment" -> experiment := parse_string ()
       | "name" -> name := parse_string ()
       | "value" -> value := parse_number ()
       | _ -> ignore (parse_string ()));
      skip_ws ();
      if !pos < len && s.[!pos] = ',' then begin incr pos; fields () end in
    fields ();
    expect '}';
    { experiment = !experiment; name = !name; value = !value } in
  (* Top level: {"schema":"...","results":[...]} *)
  expect '{';
  let results = ref [] in
  let rec top () =
    let key = parse_string () in
    expect ':';
    (match key with
     | "results" ->
       expect '[';
       skip_ws ();
       if !pos < len && s.[!pos] = ']' then incr pos
       else
         let rec elems () =
           results := parse_result () :: !results;
           skip_ws ();
           if !pos < len && s.[!pos] = ',' then begin incr pos; elems () end
           else expect ']' in
         elems ()
     | _ -> ignore (parse_string ()));
    skip_ws ();
    if !pos < len && s.[!pos] = ',' then begin incr pos; top () end in
  top ();
  List.rev !results

(* The gated rows and which direction counts as a regression.

   Latency-shaped metrics (Table 5, reclaim, swap pauses) fail when
   they grow past the ceiling. The engine experiment instead gates
   deterministic counted proxies — events processed, events fired,
   fuzz decisions — which fail when they DROP below the floor (work
   silently skipped), plus minor-heap words per storm event and per
   HTTP request, which fail upward like a latency (allocation crept
   back into the hot path).
   Wall-clock rates (events/sec and friends) are recorded for
   trending but never gated: CI hosts are too noisy to fail on. *)
type direction = Ceiling | Floor

let gated m =
  let has_sub sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length m.name
      && (String.sub m.name i n = sub || at (i + 1)) in
    at 0 in
  if m.experiment = "table5" && has_sub "latency" then Some Ceiling
  else if m.experiment = "mem" && has_sub "reclaim p" then Some Ceiling
  else if m.experiment = "swap" && has_sub "pause p" then Some Ceiling
  else if m.experiment = "engine" then
    match m.name with
    | "storm wheel minor words/event" | "http minor words/request" ->
      Some Ceiling
    | "storm events processed" | "http events fired" | "fuzz decisions" ->
      Some Floor
    | _ -> None
  else if m.experiment = "verifier" then
    (* All deterministic virtual-time numbers. The speedups gate as
       floors: losing one means verified handlers picked up a
       per-event check somewhere (the whole point undone quietly).
       The verified dispatch costs and the one-time verification cost
       gate as ceilings. *)
    (if has_sub "speedup" then Some Floor
     else if has_sub "verified" || has_sub "install" then Some Ceiling
     else None)
  else if m.experiment = "smp" then
    (* Virtual-time throughput is deterministic, so the scaling ratios
       gate as floors: a change that quietly serializes the multi-CPU
       path (a stray global lock, affinity gone wrong, sharding broken)
       drops the speedup even when 1-CPU throughput is unchanged. *)
    match m.name with
    | "speedup 2cpu" | "speedup 4cpu" -> Some Floor
    | _ -> None
  else None

let () =
  match Sys.argv with
  | [| _; reference_path; current_path |] ->
    let reference = parse_file reference_path in
    let current = parse_file current_path in
    let failures = ref 0 and checked = ref 0 in
    List.iter
      (fun r ->
         match gated r with
         | None -> ()
         | Some dir ->
           match
             List.find_opt
               (fun c -> c.experiment = r.experiment && c.name = r.name)
               current
           with
           | None ->
             incr failures;
             Printf.printf "MISSING  %-34s reference %.1f, not measured\n"
               r.name r.value
           | Some c ->
             incr checked;
             (match dir with
              | Ceiling ->
                let limit = r.value *. (1. +. tolerance) in
                if c.value > limit then begin
                  incr failures;
                  Printf.printf
                    "FAIL     %-34s %.1f > %.1f (+%.0f%% ceiling)\n"
                    r.name c.value limit (tolerance *. 100.)
                end else
                  Printf.printf "ok       %-34s %.1f (reference %.1f)\n"
                    r.name c.value r.value
              | Floor ->
                let floor_v = r.value *. (1. -. tolerance) in
                if c.value < floor_v then begin
                  incr failures;
                  Printf.printf
                    "FAIL     %-34s %.1f < %.1f (-%.0f%% floor)\n"
                    r.name c.value floor_v (tolerance *. 100.)
                end else
                  Printf.printf "ok       %-34s %.1f (reference %.1f)\n"
                    r.name c.value r.value))
      reference;
    if !checked = 0 then begin
      print_endline
        "no gated metrics found: run the experiment with --json first";
      exit 1
    end;
    if !failures > 0 then begin
      Printf.printf "%d perf gate failure(s)\n" !failures;
      exit 1
    end;
    Printf.printf "all %d gated metrics within %.0f%% of reference\n"
      !checked (tolerance *. 100.)
  | _ ->
    prerr_endline "usage: check_perf REFERENCE.json CURRENT.json";
    exit 2
