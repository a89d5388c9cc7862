type kind =
  | Instant
  | Begin of int
  | End of int

(* Ring records are mutated in place: each slot's record is allocated
   once (on the ring's first revolution) and then rewritten on every
   overwrite, so a steady-state tracing workload allocates nothing per
   instant or span endpoint. [records] hands out copies, never the
   live slots. *)
type record = {
  mutable ts : int;
  mutable kind : kind;
  mutable cat : string;
  mutable name : string;
  mutable args : (string * string) list;
}

(* Span tokens are recycled through an intrusive free list threaded
   over [s_link] ([null_span] terminates it and is never pooled).
   [end_span] retires the token by setting [sid] to -1 before pushing
   it on the list, which also makes ending a span twice a no-op. *)
type span = {
  mutable sid : int;
  mutable t0 : int;
  mutable scat : string;
  mutable sname : string;
  mutable s_link : span;
}

let rec null_span =
  { sid = -1; t0 = 0; scat = ""; sname = ""; s_link = null_span }

(* Latency histogram with log2 buckets: bucket [i] counts samples
   whose cycle count has its highest set bit at position [i]. Exact
   count/sum/min/max ride along; percentiles are read from the
   buckets (upper bound of the bucket, clamped to the observed
   range), which is within 2x of the true value — plenty for p50/p99
   triage. *)
let n_buckets = 63

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
}

type summary = {
  count : int;
  mean_us : float;
  min_us : float;
  max_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
}

type pool_stats = {
  ring_reused : int;
  ring_fresh : int;
  span_hits : int;
  span_misses : int;
}

type t = {
  clock : Clock.t;
  capacity : int;
  buf : record array;
  mutable on : bool;
  mutable head : int;                     (* next write position *)
  mutable len : int;
  mutable n_dropped : int;
  mutable next_span : int;
  mutable span_pool : span;               (* free list over [s_link] *)
  mutable p_ring_reused : int;
  mutable p_ring_fresh : int;
  mutable p_span_hits : int;
  mutable p_span_misses : int;
  hists : (string, hist) Hashtbl.t;
  mutable hist_order : string list;       (* first-use order *)
}

(* All slots alias [dummy] until first written; [push] detects the
   aliasing and allocates the slot's own record exactly once. *)
let dummy = { ts = 0; kind = Instant; cat = ""; name = ""; args = [] }

let create ?(capacity = 16384) clock =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { clock; capacity; buf = Array.make capacity dummy;
    on = false; head = 0; len = 0; n_dropped = 0; next_span = 1;
    span_pool = null_span;
    p_ring_reused = 0; p_ring_fresh = 0; p_span_hits = 0; p_span_misses = 0;
    hists = Hashtbl.create 32; hist_order = [] }

(* One tracer per clock: subsystems sharing a clock (every machine on
   one simulation) share a timeline, so cross-host packet flows land
   in one trace. The registry is keyed physically by clock and holds
   its entries through ephemerons, so it pins no simulation: once a
   clock is unreachable its tracer (which points back at the clock)
   goes with it. Subsystems look their tracer up once, when they are
   created, so the lookup is off every per-event path. *)
module Registry = Ephemeron.K1.Make (struct
    type t = Clock.t
    let equal = ( == )
    let hash = Clock.id
  end)

let registry : t Registry.t = Registry.create 8

let of_clock ?capacity clock =
  match Registry.find_opt registry clock with
  | Some t -> t
  | None ->
    let t = create ?capacity clock in
    Registry.clean registry;
    Registry.add registry clock t;
    t

let clock t = t.clock

let capacity t = t.capacity

let enable t = t.on <- true

let disable t = t.on <- false

let on t = t.on

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  (* Keep the slot records for reuse but scrub their payloads so a
     cleared trace pins no strings or argument lists. *)
  Array.iter
    (fun r ->
       if r != dummy then begin
         r.ts <- 0; r.kind <- Instant; r.cat <- ""; r.name <- ""; r.args <- []
       end)
    t.buf;
  Hashtbl.reset t.hists;
  t.hist_order <- []

let pool_stats t =
  { ring_reused = t.p_ring_reused;
    ring_fresh = t.p_ring_fresh;
    span_hits = t.p_span_hits;
    span_misses = t.p_span_misses }

let dropped t = t.n_dropped

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)
(* ------------------------------------------------------------------ *)

let push t ~ts ~kind ~cat ~name ~args =
  if t.len = t.capacity then t.n_dropped <- t.n_dropped + 1
  else t.len <- t.len + 1;
  let r = t.buf.(t.head) in
  let r =
    if r != dummy then begin
      t.p_ring_reused <- t.p_ring_reused + 1;
      r
    end
    else begin
      t.p_ring_fresh <- t.p_ring_fresh + 1;
      let r = { ts; kind; cat; name; args } in
      t.buf.(t.head) <- r;
      r
    end in
  r.ts <- ts;
  r.kind <- kind;
  r.cat <- cat;
  r.name <- name;
  r.args <- args;
  t.head <- (t.head + 1) mod t.capacity

let bucket_of cycles =
  if cycles <= 0 then 0
  else begin
    let i = ref 0 and v = ref cycles in
    while !v > 1 do incr i; v := !v lsr 1 done;
    min !i (n_buckets - 1)
  end

let hist t key =
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0; h_min = max_int; h_max = 0;
              buckets = Array.make n_buckets 0 } in
    Hashtbl.replace t.hists key h;
    t.hist_order <- t.hist_order @ [ key ];
    h

let record_latency t ~key cycles =
  if t.on then begin
    let cycles = max 0 cycles in
    let h = hist t key in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + cycles;
    if cycles < h.h_min then h.h_min <- cycles;
    if cycles > h.h_max then h.h_max <- cycles;
    let b = bucket_of cycles in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

let instant t ~cat ~name ?(args = []) () =
  if t.on then
    push t ~ts:(Clock.now t.clock) ~kind:Instant ~cat ~name ~args

let begin_span t ~cat ~name ?(args = []) () =
  if not t.on then null_span
  else begin
    let sid = t.next_span in
    t.next_span <- sid + 1;
    let now = Clock.now t.clock in
    push t ~ts:now ~kind:(Begin sid) ~cat ~name ~args;
    if t.span_pool != null_span then begin
      let s = t.span_pool in
      t.span_pool <- s.s_link;
      s.s_link <- null_span;
      s.sid <- sid;
      s.t0 <- now;
      s.scat <- cat;
      s.sname <- name;
      t.p_span_hits <- t.p_span_hits + 1;
      s
    end
    else begin
      t.p_span_misses <- t.p_span_misses + 1;
      { sid; t0 = now; scat = cat; sname = name; s_link = null_span }
    end
  end

let end_span ?(args = []) t s =
  if s.sid >= 0 && t.on then begin
    let now = Clock.now t.clock in
    push t ~ts:now ~kind:(End s.sid) ~cat:s.scat ~name:s.sname ~args;
    record_latency t ~key:(s.scat ^ "." ^ s.sname) (now - s.t0);
    (* Retire and recycle the token. [sid <- -1] makes a second
       end_span on the same token a no-op. *)
    s.sid <- -1;
    s.scat <- "";
    s.sname <- "";
    s.s_link <- t.span_pool;
    t.span_pool <- s
  end

let with_span t ~cat ~name ?args f =
  if not t.on then f ()
  else begin
    let s = begin_span t ~cat ~name ?args () in
    Fun.protect ~finally:(fun () -> end_span t s) f
  end

(* ------------------------------------------------------------------ *)
(* Reading the ring                                                   *)
(* ------------------------------------------------------------------ *)

(* Copies, not the live slots: the ring mutates records in place on
   overwrite, so handing out the slots themselves would let a later
   push rewrite a reader's data under it. *)
let records t =
  let start =
    if t.len = t.capacity then t.head else 0 in
  List.init t.len (fun i ->
      let r = t.buf.((start + i) mod t.capacity) in
      { ts = r.ts; kind = r.kind; cat = r.cat; name = r.name; args = r.args })

(* Spans whose Begin and End both survived in the ring, oldest first.
   Wraparound can orphan either end of a span; orphans are simply not
   paired (the Chrome export still emits them — async begin/end
   events tolerate missing partners). *)
let paired_spans t =
  let ends = Hashtbl.create 64 in
  List.iter
    (fun r -> match r.kind with
       | End sid -> Hashtbl.replace ends sid r
       | Instant | Begin _ -> ())
    (records t);
  List.filter_map
    (fun r -> match r.kind with
       | Begin sid ->
         (match Hashtbl.find_opt ends sid with
          | Some e -> Some (r, e)
          | None -> None)
       | Instant | End _ -> None)
    (records t)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

let percentile_cycles h q =
  if h.h_count = 0 then 0.
  else begin
    let target = q *. float_of_int h.h_count in
    let rec scan i acc =
      if i >= n_buckets then float_of_int h.h_max
      else begin
        let acc = acc + h.buckets.(i) in
        if float_of_int acc >= target then
          (* upper bound of bucket i, clamped to the observed range *)
          let upper = if i >= 62 then max_int else (1 lsl (i + 1)) - 1 in
          float_of_int (max h.h_min (min h.h_max upper))
        else scan (i + 1) acc
      end in
    scan 0 0
  end

let summary_of t h =
  let us c = Cost.cycles_to_us (Clock.cost t.clock) c in
  let usf c = Cost.cycles_to_us (Clock.cost t.clock) (int_of_float c) in
  { count = h.h_count;
    mean_us =
      (if h.h_count = 0 then 0.
       else us h.h_sum /. float_of_int h.h_count);
    min_us = us (if h.h_count = 0 then 0 else h.h_min);
    max_us = us h.h_max;
    p50_us = usf (percentile_cycles h 0.50);
    p90_us = usf (percentile_cycles h 0.90);
    p99_us = usf (percentile_cycles h 0.99) }

let summary t ~key =
  Hashtbl.find_opt t.hists key |> Option.map (summary_of t)

let summaries t =
  List.filter_map
    (fun key ->
       Hashtbl.find_opt t.hists key
       |> Option.map (fun h -> (key, summary_of t h)))
    t.hist_order

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                          *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Spans are emitted as async begin/end pairs ("b"/"e" with an id):
   unlike "B"/"E" duration events they need not nest, and spans here
   routinely interleave (an HTTP request span straddles many strand
   switches). Instants use "i" with thread scope. *)
let to_chrome_json t =
  let cost = Clock.cost t.clock in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit r =
    if not !first then Buffer.add_char buf ',';
    first := false;
    let ts = Cost.cycles_to_us cost r.ts in
    let common =
      Printf.sprintf "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
        (json_escape r.name) (json_escape r.cat) ts in
    let phase =
      match r.kind with
      | Instant -> "\"ph\":\"i\",\"s\":\"t\""
      | Begin sid -> Printf.sprintf "\"ph\":\"b\",\"id\":%d" sid
      | End sid -> Printf.sprintf "\"ph\":\"e\",\"id\":%d" sid in
    let args =
      match r.args with
      | [] -> ""
      | args ->
        let fields =
          List.map
            (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
            args in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields) in
    Buffer.add_string buf
      (Printf.sprintf "{%s,%s%s}" common phase args) in
  List.iter emit (records t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Text report                                                        *)
(* ------------------------------------------------------------------ *)

let report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d records (%d dropped), %d histograms\n"
       t.len t.n_dropped (Hashtbl.length t.hists));
  List.iter
    (fun (key, s) ->
       Buffer.add_string buf
         (Printf.sprintf
            "  %-28s n=%-6d mean=%8.2fus p50=%8.2fus p90=%8.2fus p99=%8.2fus max=%8.2fus\n"
            key s.count s.mean_us s.p50_us s.p90_us s.p99_us s.max_us))
    (summaries t);
  Buffer.contents buf
