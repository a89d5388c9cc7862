(* The Trace subsystem: ring-buffer bookkeeping, histogram estimates,
   the disabled-tracer contract, and a whole-stack smoke test — one
   HTTP request over TCP, exported as Chrome trace_event JSON with
   spans from every layer it crossed. *)

open Alcotest
open Spin_net
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Machine = Spin_machine.Machine
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2

let fresh_tracer ?capacity () =
  let clock = Clock.create Cost.alpha_133 in
  let t = Trace.create ?capacity clock in
  Trace.enable t;
  (clock, t)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                        *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound_drops_oldest () =
  let _, t = fresh_tracer ~capacity:8 () in
  for i = 0 to 19 do
    Trace.instant t ~cat:"test" ~name:("i" ^ string_of_int i) ()
  done;
  let rs = Trace.records t in
  check int "ring holds its capacity" 8 (List.length rs);
  check int "the overflow was counted" 12 (Trace.dropped t);
  check string "oldest survivor is the 13th record" "i12"
    (List.hd rs).Trace.name;
  check string "newest record is the last one" "i19"
    (List.nth rs 7).Trace.name

let test_span_pairing_survives_wraparound () =
  let _, t = fresh_tracer ~capacity:6 () in
  (* This span's begin will be evicted: its end becomes an orphan. *)
  let orphan = Trace.begin_span t ~cat:"test" ~name:"orphan" () in
  for i = 0 to 7 do
    Trace.instant t ~cat:"test" ~name:("filler" ^ string_of_int i) ()
  done;
  Trace.end_span t orphan;
  (* This one fits entirely inside the ring. *)
  let whole = Trace.begin_span t ~cat:"test" ~name:"whole" () in
  Trace.end_span t whole;
  check bool "records were dropped" true (Trace.dropped t > 0);
  let pairs = Trace.paired_spans t in
  check int "only the intact span pairs up" 1 (List.length pairs);
  let b, e = List.hd pairs in
  check string "begin endpoint" "whole" b.Trace.name;
  check string "end endpoint" "whole" e.Trace.name;
  (* The orphaned end is still in the ring, just unpaired. *)
  check bool "orphan end retained in the ring" true
    (List.exists (fun r -> r.Trace.name = "orphan") (Trace.records t))

let test_clear_resets_everything () =
  let _, t = fresh_tracer ~capacity:4 () in
  for _ = 1 to 10 do Trace.instant t ~cat:"test" ~name:"x" () done;
  Trace.record_latency t ~key:"k" 100;
  Trace.clear t;
  check int "no records" 0 (List.length (Trace.records t));
  check int "no drops" 0 (Trace.dropped t);
  check (list string) "no histograms" []
    (List.map fst (Trace.summaries t));
  check bool "still enabled" true (Trace.on t)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

let test_histogram_percentiles () =
  let clock, t = fresh_tracer () in
  let us n = Cost.us_to_cycles (Clock.cost clock) (float_of_int n) in
  (* 90 fast ops at 10us, 9 at 100us, one monster at 1000us. *)
  for _ = 1 to 90 do Trace.record_latency t ~key:"op" (us 10) done;
  for _ = 1 to 9 do Trace.record_latency t ~key:"op" (us 100) done;
  Trace.record_latency t ~key:"op" (us 1000);
  match Trace.summary t ~key:"op" with
  | None -> fail "histogram missing"
  | Some s ->
    check int "count" 100 s.Trace.count;
    check (float 0.5) "min" 10. s.Trace.min_us;
    check (float 0.5) "max" 1000. s.Trace.max_us;
    (* Log2 buckets: estimates are within a factor of two. *)
    check bool "p50 near the common case" true
      (s.Trace.p50_us >= 5. && s.Trace.p50_us <= 20.);
    check bool "p99 sees the tail" true (s.Trace.p99_us >= 100.);
    check bool "mean between min and max" true
      (s.Trace.mean_us > 10. && s.Trace.mean_us < 1000.)

let test_end_span_feeds_histogram () =
  let clock, t = fresh_tracer () in
  let sp = Trace.begin_span t ~cat:"sched" ~name:"worker" () in
  Clock.charge clock (Cost.us_to_cycles (Clock.cost clock) 42.);
  Trace.end_span t sp;
  match Trace.summary t ~key:"sched.worker" with
  | None -> fail "span latency not recorded"
  | Some s ->
    check int "one sample" 1 s.Trace.count;
    check (float 1.0) "span duration" 42. s.Trace.max_us

(* ------------------------------------------------------------------ *)
(* The disabled tracer                                                *)
(* ------------------------------------------------------------------ *)

let test_disabled_tracer_records_nothing () =
  let clock = Clock.create Cost.alpha_133 in
  let t = Trace.create clock in
  check bool "off by default" false (Trace.on t);
  Trace.instant t ~cat:"test" ~name:"ghost" ();
  let sp = Trace.begin_span t ~cat:"test" ~name:"ghost" () in
  check bool "disabled begin_span returns the null token" true
    (sp == Trace.null_span);
  Trace.end_span t sp;
  Trace.with_span t ~cat:"test" ~name:"ghost" (fun () -> ());
  Trace.record_latency t ~key:"ghost" 10;
  check int "no records" 0 (List.length (Trace.records t));
  check (list string) "no histograms" []
    (List.map fst (Trace.summaries t));
  (* Re-enabled, it works again. *)
  Trace.enable t;
  Trace.instant t ~cat:"test" ~name:"real" ();
  check int "recording after enable" 1 (List.length (Trace.records t))

(* ------------------------------------------------------------------ *)
(* A minimal JSON well-formedness checker (no external deps).         *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> () in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c) in
  let literal word =
    String.iter (fun c -> expect c) word in
  let string_lit () =
    expect '"';
    let rec body () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance (); body ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> error "bad \\u escape"
           done;
           body ()
         | _ -> error "bad escape")
      | Some c when Char.code c < 0x20 -> error "control char in string"
      | Some _ -> advance (); body () in
    body () in
  let number () =
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' -> saw := true; advance (); go ()
        | _ -> () in
      go ();
      if not !saw then error "expected digit" in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with Some '.' -> advance (); digits () | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ()) in
  let rec value () =
    skip_ws ();
    (match peek () with
     | Some '{' ->
       advance (); skip_ws ();
       (match peek () with
        | Some '}' -> advance ()
        | _ ->
          let rec members () =
            skip_ws (); string_lit (); skip_ws (); expect ':'; value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> error "expected , or }" in
          members ())
     | Some '[' ->
       advance (); skip_ws ();
       (match peek () with
        | Some ']' -> advance ()
        | _ ->
          let rec elements () =
            value (); skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> error "expected , or ]" in
          elements ())
     | Some '"' -> string_lit ()
     | Some ('-' | '0' .. '9') -> number ()
     | Some 't' -> literal "true"
     | Some 'f' -> literal "false"
     | Some 'n' -> literal "null"
     | _ -> error "expected a value");
    skip_ws () in
  value ();
  if !pos <> n then error "trailing garbage"

let test_json_validator_sanity () =
  validate_json {|{"a":[1,-2.5e3,"x\nA"],"b":{},"c":[true,false,null]}|};
  List.iter
    (fun bad ->
       match validate_json bad with
       | () -> fail ("accepted invalid JSON: " ^ bad)
       | exception Bad_json _ -> ())
    [ {|{"a":}|}; {|[1,2|}; {|"unterminated|}; {|{"a":1}extra|}; {|01e|} ]

(* ------------------------------------------------------------------ *)
(* End to end: one HTTP request over TCP, exported for Chrome          *)
(* ------------------------------------------------------------------ *)

let test_http_request_traced_across_layers () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc =
    Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string "<h1>traced</h1>");
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    ignore (Http.create ~dispatcher:server.Host.dispatcher
              server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  (* Only the request itself is traced: enable after the quiet boot. *)
  let tr = Trace.of_clock clock in
  Trace.enable tr;
  let response = Buffer.create 256 in
  ignore (Sched.spawn client.Host.sched ~name:"client" (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> failwith "no connection"
    | Some conn ->
      Tcp.send client.Host.tcp conn
        (Bytes.of_string "GET /index.html HTTP/1.0\r\n\r\n");
      let rec drain () =
        let data = Tcp.read client.Host.tcp conn in
        if Bytes.length data > 0 then begin
          Buffer.add_bytes response data;
          drain ()
        end in
      drain ()));
  Host.run_all [ client; server ];
  Trace.disable tr;
  check bool "the request succeeded" true
    (String.length (Buffer.contents response) > 12
     && String.sub (Buffer.contents response) 9 3 = "200");
  (* Spans from every layer the request crossed. *)
  let span_cats =
    List.filter_map
      (fun r ->
         match r.Trace.kind with
         | Trace.Begin _ -> Some r.Trace.cat
         | _ -> None)
      (Trace.records tr) in
  List.iter
    (fun cat ->
       check bool ("a " ^ cat ^ " span was recorded") true
         (List.mem cat span_cats))
    [ "netif"; "tcp"; "dispatcher"; "http" ];
  (* The export is well-formed JSON and mentions each layer. *)
  let json = Trace.to_chrome_json tr in
  (match validate_json json with
   | () -> ()
   | exception Bad_json msg -> fail ("chrome export invalid: " ^ msg));
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec scan i =
      i + nl <= hl && (String.sub json i nl = needle || scan (i + 1)) in
    scan 0 in
  check bool "has the traceEvents envelope" true (contains "\"traceEvents\"");
  List.iter
    (fun cat ->
       check bool ("export mentions " ^ cat) true
         (contains (Printf.sprintf "\"cat\":%S" cat)))
    [ "netif"; "tcp"; "dispatcher"; "http" ];
  (* Latency histograms picked up the request too. *)
  check bool "http.request latency summarised" true
    (Trace.summary tr ~key:"http.request" <> None)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

(* A whole simulation built and dropped: only a weak pointer to its
   shared tracer survives the call. *)
let[@inline never] dropped_simulation () =
  let m = Machine.create ~name:"dropped" ~mem_mb:4 () in
  let d = Spin_core.Dispatcher.create m.Machine.clock in
  ignore (Sched.create m.Machine.sim d);
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Trace.of_clock m.Machine.clock));
  w

let test_registry_does_not_pin () =
  let live = Clock.create Cost.alpha_133 in
  let tr = Trace.of_clock live in
  Trace.enable tr;
  let dropped = dropped_simulation () in
  Gc.full_major ();
  check bool "a dropped clock's tracer is collected" false
    (Weak.check dropped 0);
  check bool "a live clock keeps its own tracer" true
    (Trace.of_clock live == tr);
  check bool "and its state" true (Trace.on (Trace.of_clock live))

let () =
  Alcotest.run "spin_trace"
    [
      ( "ring",
        [
          test_case "wraparound drops the oldest" `Quick
            test_ring_wraparound_drops_oldest;
          test_case "span pairing survives wraparound" `Quick
            test_span_pairing_survives_wraparound;
          test_case "clear resets everything" `Quick
            test_clear_resets_everything;
        ] );
      ( "histograms",
        [
          test_case "log2-bucket percentiles" `Quick
            test_histogram_percentiles;
          test_case "end_span feeds the histogram" `Quick
            test_end_span_feeds_histogram;
        ] );
      ( "disabled",
        [
          test_case "disabled tracer records nothing" `Quick
            test_disabled_tracer_records_nothing;
        ] );
      ( "registry",
        [
          test_case "dropped clocks are not pinned" `Quick
            test_registry_does_not_pin;
        ] );
      ( "export",
        [
          test_case "json validator sanity" `Quick test_json_validator_sanity;
          test_case "http request traced across layers" `Quick
            test_http_request_traced_across_layers;
        ] );
    ]
