(* HTTP load scaling over the zero-copy packet path (section 5.4,
   extended): a closed loop of 1..N simulated clients against the
   in-kernel web server, reporting requests/sec and p50/p99 request
   latency from the tracer's histograms — plus a direct before/after
   measurement of host allocation per forwarded packet, replaying the
   seed Pkt's copy discipline against today's view discipline.

     dune exec bench/main.exe load
     dune exec bench/main.exe -- --json BENCH_load.json load *)

open Spin_net
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched

(* ------------------------------------------------------------------ *)
(* Closed-loop ramp against the in-kernel server                      *)
(* ------------------------------------------------------------------ *)

let requests_per_client = 20
let latency_key = "load.request"

(* Bytes allocated on the host so far. [Gc.allocated_bytes] is not
   used: on OCaml 5 its minor-word count only advances at a minor
   collection, so over a run of a few dozen requests it jumps by a
   whole minor heap (2 MB) whenever one more collection falls inside.
   [Gc.minor_words] is exact, and words allocated straight into the
   major heap (blocks over 256 words, such as a 2 KB response) are
   counted at allocation. *)
let host_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* One ramp level: [clients] strands on the client host, each running
   a closed loop of connect / GET / drain / close against the server's
   cached 2 KB index.html. With [traced] the per-request latencies
   feed a {!Trace} histogram; untraced, the pass measures host-side
   allocation per request instead (the tracer itself allocates, so the
   two measurements run separately). *)
let run_level ~clients ~traced =
  let clock, client, server = B_extra.web_fixture () in
  let tr = Trace.of_clock clock in
  if traced then Trace.enable tr;
  let total = clients * requests_per_client in
  let completed = ref 0 in
  let t_start = ref 0. and t_end = ref 0. in
  let client_loop () =
    for _ = 1 to requests_per_client do
      let t0 = Clock.now clock in
      B_extra.http_get clock client;
      Trace.record_latency tr ~key:latency_key (Clock.now clock - t0);
      incr completed;
      if !completed = total then t_end := Clock.now_us clock
    done in
  ignore (Sched.spawn client.Host.sched ~name:"driver" (fun () ->
    (* Warm the file/object caches outside the measurement. *)
    B_extra.http_get clock client;
    t_start := Clock.now_us clock;
    for c = 1 to clients do
      ignore (Sched.spawn client.Host.sched
                ~name:(Printf.sprintf "client-%d" c) client_loop)
    done));
  let host_alloc0 = host_bytes () in
  Host.run_all [ client; server ];
  let alloc_per_req =
    (host_bytes () -. host_alloc0) /. float_of_int total in
  let elapsed_us = !t_end -. !t_start in
  let rps =
    if elapsed_us > 0. then float_of_int total /. (elapsed_us /. 1e6)
    else nan in
  match Trace.summary tr ~key:latency_key with
  | Some s when traced -> (rps, s.Trace.p50_us, s.Trace.p99_us, alloc_per_req)
  | _ -> (rps, nan, nan, alloc_per_req)

(* ------------------------------------------------------------------ *)
(* Host allocation per forwarded packet, before vs after              *)
(* ------------------------------------------------------------------ *)

(* Wire framing of this stack: link (2) + IP (12) + UDP (8). *)
let link_hdr = 2
let ip_hdr = 12
let udp_hdr = Udp.header_bytes

(* The seed's Pkt materialized every layer's slice. This replays, with
   plain [Bytes], the exact allocation sequence of a UDP echo on that
   discipline: driver [of_payload] copy; IP's [peek] guard, two
   [pull]s (head + tail each), [contents], and declared-length [sub];
   UDP's payload [sub] — then the transmit side rebuilds the frame
   ([encode_datagram], [of_payload], two [push]-by-concatenation) and
   the driver takes its [contents] copy. *)
let legacy_echo frame =
  let total = Bytes.length frame in
  let p = Bytes.copy frame in                               (* rx DMA wrap *)
  ignore (Bytes.sub p 0 link_hdr);                          (* guard peek *)
  let p = Bytes.sub p link_hdr (total - link_hdr) in        (* pull link *)
  let _h = Bytes.sub p 0 ip_hdr in
  let p = Bytes.sub p ip_hdr (Bytes.length p - ip_hdr) in   (* pull IP *)
  let dgram = Bytes.copy p in                               (* contents *)
  let dgram = Bytes.sub dgram 0 (Bytes.length dgram) in     (* len check *)
  let plen = Bytes.length dgram - udp_hdr in
  let payload = Bytes.sub dgram udp_hdr plen in             (* UDP payload *)
  let out = Bytes.make (udp_hdr + plen) '\000' in           (* encode dgram *)
  Bytes.blit payload 0 out udp_hdr plen;
  let out = Bytes.copy out in                               (* of_payload *)
  let out = Bytes.cat (Bytes.make ip_hdr '\000') out in     (* push IP *)
  let out = Bytes.cat (Bytes.make link_hdr '\000') out in   (* push link *)
  Bytes.copy out                                            (* tx contents *)

(* The same echo on today's Pkt: the frame is wrapped in place, each
   layer drops its header by advancing the view, the response headers
   are pushed into the consumed headroom, and the only copy left is
   the device DMA when the frame goes back on the wire. *)
let zerocopy_echo frame =
  let p = Pkt.of_frame frame in
  ignore (Pkt.get_u16_le p 0);                              (* guard in place *)
  Pkt.drop p link_hdr;
  Pkt.drop p ip_hdr;
  let plen = Pkt.length p - udp_hdr in
  let d = Pkt.sub p ~pos:udp_hdr ~len:plen in               (* payload view *)
  let buf, off = Pkt.push_view d udp_hdr in                 (* echo headers *)
  Bytes.set_uint16_le buf off 7;
  Bytes.set_uint16_le buf (off + 2) 7;
  Bytes.set_uint16_le buf (off + 4) plen;
  Bytes.set_uint16_le buf (off + 6) 0;
  let buf, off = Pkt.push_view d ip_hdr in
  Bytes.fill buf off ip_hdr '\000';
  let buf, off = Pkt.push_view d link_hdr in
  Bytes.set_uint16_le buf off 0x0800;
  let buf, off, len = Pkt.view d in
  Bytes.sub buf off len                                     (* device DMA *)

let alloc_per_packet f =
  let payload = 1024 in
  let frame = Bytes.make (link_hdr + ip_hdr + udp_hdr + payload) 'x' in
  Bytes.set_uint16_le frame 0 0x0800;
  for _ = 1 to 256 do ignore (Sys.opaque_identity (f frame)) done;
  let iters = 20_000 in
  let before = host_bytes () in
  for _ = 1 to iters do ignore (Sys.opaque_identity (f frame)) done;
  (host_bytes () -. before) /. float_of_int iters

let alloc_comparison () =
  Report.header
    "Host allocation per forwarded packet (UDP echo, 1024-byte payload)";
  let legacy = alloc_per_packet legacy_echo in
  let zerocopy = alloc_per_packet zerocopy_echo in
  let ratio = legacy /. zerocopy in
  Printf.printf "%-42s %12s\n" "packet discipline" "bytes/pkt";
  Printf.printf "%-42s %12.0f\n" "seed Pkt (copy per layer)" legacy;
  Printf.printf "%-42s %12.0f\n" "zero-copy views (this tree)" zerocopy;
  Printf.printf "  ratio: %.1fx fewer host bytes per packet (>= 2x required)\n"
    ratio;
  Report.metric ~unit_:"B" ~name:"alloc/pkt seed Pkt" legacy;
  Report.metric ~unit_:"B" ~name:"alloc/pkt zero-copy" zerocopy;
  Report.metric ~unit_:"x" ~name:"alloc ratio" ratio

(* ------------------------------------------------------------------ *)

let run () =
  Report.header
    "HTTP load scaling, closed loop over the zero-copy path (5.4)";
  Printf.printf "%-8s %10s %12s %12s %14s\n"
    "clients" "req/s" "p50 (us)" "p99 (us)" "host B/req";
  List.iter
    (fun clients ->
       let rps, p50, p99, _ = run_level ~clients ~traced:true in
       let _, _, _, alloc = run_level ~clients ~traced:false in
       Printf.printf "%-8d %10.0f %12.0f %12.0f %14.0f\n"
         clients rps p50 p99 alloc;
       let m name unit_ v =
         Report.metric ~unit_ ~name:(Printf.sprintf "%s clients=%d" name clients) v in
       m "req/s" "req/s" rps;
       m "p50" "us" p50;
       m "p99" "us" p99;
       m "host alloc/req" "B" alloc)
    [ 1; 2; 4; 8; 16 ];
  Report.note
    "  Latency grows with queueing at the single-CPU server while\n\
    \  throughput saturates: the closed loop keeps exactly N requests\n\
    \  in flight.\n";
  alloc_comparison ()
