(* What every workload hands back, and the pieces the two HTTP
   workloads share: a client GET wrapped in spans, and the check that
   a response body is byte-equal to the file version it claims. *)

open Spin_net
module Clock = Spin_machine.Clock

type result = {
  attempted : int;                     (* also the per-op denominator *)
  failed : int;                        (* ops whose output check failed *)
  e2e : (string * float) list;         (* virtual-time end-to-end metrics *)
  report : (string * float * string) list;
  (* the workload's own metric names, for the printed table *)
  layers : (string * float) list;      (* per-layer counters *)
  tails : (string * int) list;         (* samples beyond each reported tail *)
}

type prepared = {
  clock : Clock.t;
  span_capacity : int;
  run : Spans.t -> result;
}

(* -- seeded inputs ------------------------------------------------- *)

let rng seed = Random.State.make [| 0x5b1d; seed |]

let exponential st ~mean = -. mean *. Float.log (1. -. Random.State.float st 1.)

(* A seeded permutation of 0..n-1 (Fisher-Yates). *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let us_to_cycles us = Spin_machine.Cost.us_to_cycles Spin_machine.Cost.alpha_133 us

(* -- file contents --------------------------------------------------

   Version [v] of file [f]: eight decimal digits of [v], then letters
   that depend on [f], [v] and the offset, so a body from the wrong
   file, the wrong version or the wrong offset never matches. *)

let stamp_len = 8

let content_byte ~file ~version i =
  if i < stamp_len then begin
    let rec digit v k = if k = 0 then v mod 10 else digit (v / 10) (k - 1) in
    Char.chr (48 + digit version (stamp_len - 1 - i))
  end else Char.chr (97 + ((file * 7) + (version * 13) + i) mod 26)

let content ~file ~version ~bytes =
  Bytes.init bytes (content_byte ~file ~version)

(* -- HTTP client ----------------------------------------------------- *)

let request path = Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path)

(* One connect / GET / drain / close, the response accumulated in
   [buf]. Returns the response length (-1 if the connection was
   refused) and stores the connect latency in [connect_cycles].
   [on_connect] sees the connection once it is open (so a watchdog can
   abort it). *)
let get ?(on_connect = ignore) spans ~req clock tcp ~dst ~request ~buf
    ~connect_cycles =
  let top = Spans.start spans Spans.Http_request ~req in
  let sp = Spans.start spans ~parent:top Spans.Tcp_connect ~req in
  let t0 = Clock.now clock in
  let conn = Tcp.connect tcp ~dst ~dst_port:80 in
  connect_cycles := Clock.now clock - t0;
  Spans.stop spans sp;
  match conn with
  | None -> Spans.stop spans top; -1
  | Some conn ->
    on_connect conn;
    let sp = Spans.start spans ~parent:top Spans.Tcp_send ~req in
    Tcp.send tcp conn request;
    Spans.stop spans sp;
    let rec drain len =
      let sp = Spans.start spans ~parent:top Spans.Tcp_read ~req in
      let data = Tcp.read tcp conn in
      Spans.stop spans sp;
      let n = Bytes.length data in
      if n = 0 then len
      else begin
        let room = max 0 (min n (Bytes.length buf - len)) in
        Bytes.blit data 0 buf len room;
        drain (len + n)
      end in
    let len = drain 0 in
    let sp = Spans.start spans ~parent:top Spans.Tcp_close ~req in
    Tcp.close tcp conn;
    Spans.stop spans sp;
    Spans.stop spans top;
    len

let find_header_end buf len =
  let rec go i =
    if i + 3 >= len then -1
    else if Bytes.get buf i = '\r' && Bytes.get buf (i + 1) = '\n'
            && Bytes.get buf (i + 2) = '\r' && Bytes.get buf (i + 3) = '\n'
    then i + 4
    else go (i + 1) in
  go 0

(* The version a well-formed [200 OK] response of [bytes] body bytes
   carries for [file], or -1 when the response is not byte-equal to
   some version of that file. *)
let check_body buf len ~file ~bytes =
  let body = find_header_end buf len in
  let head = Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" bytes in
  if len > Bytes.length buf || body <> String.length head || len - body <> bytes
     || Bytes.sub_string buf 0 body <> head
  then -1
  else begin
    let rec version i v =
      if i = stamp_len then v
      else
        match Bytes.get buf (body + i) with
        | '0' .. '9' as c -> version (i + 1) ((10 * v) + Char.code c - 48)
        | _ -> -1 in
    let v = version 0 0 in
    let rec same i =
      i = bytes || (Bytes.get buf (body + i) = content_byte ~file ~version:v i
                    && same (i + 1)) in
    if v >= 0 && same 0 then v else -1
  end

(* -- summaries ------------------------------------------------------- *)

(* Exact percentiles [ps] of [samples], in microseconds. *)
let percentiles samples ps =
  let s = Samples.sorted samples in
  List.map (fun p -> Samples.us (Samples.percentile s p)) ps

let beyond samples p = Samples.beyond (Samples.count samples) p
