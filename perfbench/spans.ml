(* Spans the benchmark records around its own calls into the stack.

   A span holds its name, the request it belongs to, its parent span,
   and start/end stamps on both clocks: virtual cycles (read with
   [Clock.now], which charges nothing) and host nanoseconds. Storage is
   preallocated when the recorder is made and kept until the run ends;
   recording writes into those arrays and never charges a virtual
   cycle, so a traced run must reproduce the untraced run's virtual
   metrics exactly. A disabled recorder hands out index -1 and every
   call on it is a no-op. *)

module Clock = Spin_machine.Clock

type name =
  | Http_request
  | Tcp_connect
  | Tcp_send
  | Tcp_read
  | Tcp_close
  | Udp_rtt
  | Fs_write
  | File_cache_invalidate
  | Phys_allocate

let all =
  [ Http_request; Tcp_connect; Tcp_send; Tcp_read; Tcp_close; Udp_rtt;
    Fs_write; File_cache_invalidate; Phys_allocate ]

let to_string = function
  | Http_request -> "http.request"
  | Tcp_connect -> "tcp.connect"
  | Tcp_send -> "tcp.send"
  | Tcp_read -> "tcp.read"
  | Tcp_close -> "tcp.close"
  | Udp_rtt -> "udp.rtt"
  | Fs_write -> "fs.write"
  | File_cache_invalidate -> "file_cache.invalidate"
  | Phys_allocate -> "phys.allocate"

let index = function
  | Http_request -> 0
  | Tcp_connect -> 1
  | Tcp_send -> 2
  | Tcp_read -> 3
  | Tcp_close -> 4
  | Udp_rtt -> 5
  | Fs_write -> 6
  | File_cache_invalidate -> 7
  | Phys_allocate -> 8

type t = {
  clock : Clock.t option;        (* None: disabled *)
  name : int array;
  req : int array;
  parent : int array;
  c0 : int array;
  c1 : int array;
  h0 : int array;
  h1 : int array;
  mutable n : int;
  mutable overflow : int;
}

let host_ns () = Int64.to_int (Monotonic_clock.now ())

let make clock cap =
  let a () = Array.make cap 0 in
  { clock; name = a (); req = a (); parent = a (); c0 = a (); c1 = a ();
    h0 = a (); h1 = a (); n = 0; overflow = 0 }

let off = make None 0

let create clock ~capacity = make (Some clock) capacity

let overflow t = t.overflow

(* Opens a span starting at virtual time [at] (default now). *)
let start ?at ?(parent = -1) t nm ~req =
  match t.clock with
  | None -> -1
  | Some clock ->
    if t.n >= Array.length t.name then begin
      t.overflow <- t.overflow + 1;
      -1
    end else begin
      let i = t.n in
      t.n <- i + 1;
      t.name.(i) <- index nm;
      t.req.(i) <- req;
      t.parent.(i) <- parent;
      t.c0.(i) <- (match at with Some c -> c | None -> Clock.now clock);
      t.c1.(i) <- -1;
      t.h0.(i) <- host_ns ();
      i
    end

let stop t i =
  match t.clock with
  | Some clock when i >= 0 ->
    t.c1.(i) <- Clock.now clock;
    t.h1.(i) <- host_ns ()
  | _ -> ()

(* Per-name summary of the closed spans: count, exact p50/p99 of the
   virtual duration, p50 of the host duration, and for spans with
   children the p50 of their self time (duration minus the time their
   children cover; children of one parent never overlap here, since
   each request's calls are sequential). *)
type summary = {
  count : int;
  p50_cycles : int;
  p99_cycles : int;
  host_ns_p50 : int;
  self_p50_cycles : int;
}

let summarize t =
  let k = List.length all in
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 && t.c1.(i) >= 0 then
      child.(p) <- child.(p) + (t.c1.(i) - t.c0.(i))
  done;
  let virt = Array.init k (fun _ -> Samples.create 64) in
  let host = Array.init k (fun _ -> Samples.create 64) in
  let self = Array.init k (fun _ -> Samples.create 64) in
  for i = 0 to t.n - 1 do
    if t.c1.(i) >= 0 then begin
      let d = t.c1.(i) - t.c0.(i) in
      Samples.add virt.(t.name.(i)) d;
      Samples.add host.(t.name.(i)) (t.h1.(i) - t.h0.(i));
      Samples.add self.(t.name.(i)) (d - child.(i))
    end
  done;
  List.map
    (fun nm ->
       let j = index nm in
       let v = Samples.sorted virt.(j) in
       let h = Samples.sorted host.(j) in
       let s = Samples.sorted self.(j) in
       ( nm,
         { count = Array.length v;
           p50_cycles = Samples.percentile v 0.5;
           p99_cycles = Samples.percentile v 0.99;
           host_ns_p50 = Samples.percentile h 0.5;
           self_p50_cycles = Samples.percentile s 0.5 } ))
    all

(* Spans never closed (a request that did not finish). *)
let unclosed t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.c1.(i) < 0 then incr c
  done;
  !c
