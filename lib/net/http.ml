module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched
module File_cache = Spin_fs.File_cache
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  sched : Sched.t;
  tcp : Tcp.t;
  cache : File_cache.t;
  port : int;
  content : (string, Bytes.t option) Dispatcher.event option;
  mutable fallback : Bytes.t option;
  mutable s_requests : int;
  mutable s_ok : int;
  mutable s_not_found : int;
  mutable s_dynamic : int;
  mutable s_fallbacks : int;
  mutable s_bytes : int;
}

let parse_cost = 250                      (* request-line handling *)

let parse_request line =
  match String.split_on_char ' ' (String.trim line) with
  | "GET" :: path :: _ when String.length path > 1 && path.[0] = '/' ->
    Some (String.sub path 1 (String.length path - 1))
  | _ -> None

let respond t conn ~status ~body =
  let head =
    Printf.sprintf "HTTP/1.0 %s\r\nContent-Length: %d\r\n\r\n"
      status (Bytes.length body) in
  (* The FIN rides on the response's last segment; the close is then
     a no-op unless the connection was in no state to send. *)
  Tcp.send ~fin:true t.tcp conn (Bytes.cat (Bytes.of_string head) body);
  Tcp.close t.tcp conn

(* Dynamic content is an event: extensions install generators on
   [HTTP.GenContent]; the primary implementation answers [None]. When
   a generator faults it is contained by the dispatcher/supervisor —
   a quarantined generator simply stops answering, and requests fall
   back to the static error page instead of taking the server down. *)
let serve_miss t conn name =
  let generated =
    match t.content with
    | None -> None
    | Some ev -> Dispatcher.raise_event ev name in
  match generated with
  | Some body ->
    t.s_ok <- t.s_ok + 1;
    t.s_dynamic <- t.s_dynamic + 1;
    t.s_bytes <- t.s_bytes + Bytes.length body;
    respond t conn ~status:"200 OK" ~body
  | None ->
    match t.fallback with
    | Some body ->
      t.s_fallbacks <- t.s_fallbacks + 1;
      respond t conn ~status:"503 Service Unavailable" ~body
    | None ->
      t.s_not_found <- t.s_not_found + 1;
      respond t conn ~status:"404 Not Found" ~body:Bytes.empty

let serve t conn request =
  match parse_request request with
  | None -> respond t conn ~status:"400 Bad Request" ~body:Bytes.empty
  | Some name ->
    match File_cache.fetch t.cache ~name with
    | Some body ->
      t.s_ok <- t.s_ok + 1;
      t.s_bytes <- t.s_bytes + Bytes.length body;
      respond t conn ~status:"200 OK" ~body
    | None -> serve_miss t conn name

let handle_request t conn request =
  Clock.charge t.machine.Machine.clock parse_cost;
  t.s_requests <- t.s_requests + 1;
  let tr = t.tracer in
  if not (Trace.on tr) then serve t conn request
  else begin
    let sp =
      Trace.begin_span tr ~cat:"http" ~name:"request"
        ~args:[ ("path",
                 match parse_request request with
                 | Some name -> "/" ^ name
                 | None -> "<bad>") ] () in
    match serve t conn request with
    | () -> Trace.end_span tr sp
    | exception exn -> Trace.end_span tr sp; raise exn
  end

(* The bytecode view of a request: the path is the payload (a string
   is immutable; the unsafe cast is a read-only view, never written),
   its length the single typed field. Routing predicates compile to
   [Ebc.match_string] over this layout. *)
let content_layout : string Ebc.layout =
  Ebc.layout ~name:"HTTP.GenContent"
    ~fields:[ ("len", Ty.Int) ]
    ~read:(fun path _ -> String.length path)
    ~payload:(fun path -> (Bytes.unsafe_of_string path, 0, String.length path))
    ()

let create ?(port = 80) ?dispatcher machine sched tcp cache =
  let content =
    Option.map
      (fun d ->
        Dispatcher.declare d ~name:"HTTP.GenContent" ~owner:"HTTP"
          ~layout:content_layout
          (fun (_ : string) -> None))
      dispatcher in
  let t = {
    machine; tracer = Trace.of_clock machine.Machine.clock;
    sched; tcp; cache; port; content; fallback = None;
    s_requests = 0; s_ok = 0; s_not_found = 0; s_dynamic = 0;
    s_fallbacks = 0; s_bytes = 0;
  } in
  Tcp.listen tcp ~port ~on_accept:(fun conn ->
    let pending = Buffer.create 128 in
    let started = ref false in
    Tcp.on_receive conn (fun data ->
      Buffer.add_bytes pending data;
      let all = Buffer.contents pending in
      (* One request per connection; complete at the header break.
         Service runs on a fresh strand: a file-cache miss blocks on
         the disk without wedging the protocol input thread. *)
      match String.index_opt all '\n' with
      | Some _ when not !started ->
        started := true;
        ignore (Sched.spawn t.sched ~name:"http-request" (fun () ->
          handle_request t conn all))
      | Some _ | None -> ()));
  t

let port t = t.port

let content_event t = t.content

(* The router: the path predicate compiles to bytecode and verifies at
   install, so route matching dispatches trusted-fast — the generator
   body runs only on its own paths, and no guard stack is walked per
   request. Routes with a runtime bound, or the (theoretical) case of
   a path too long to compile, install the same predicate as a
   closure guard. *)
let install_route t ~installer ?(prefix = false) ?(spec = Dispatcher.Handler_spec.default)
    ~path handler =
  match t.content with
  | None -> None
  | Some ev ->
    let closure_guard req =
      if prefix then
        String.length req >= String.length path
        && String.sub req 0 (String.length path) = path
      else req = path in
    let closure_install () =
      Dispatcher.install_exn ev ~installer
        ?bound_cycles:spec.Dispatcher.Handler_spec.bound_cycles
        ~async:spec.Dispatcher.Handler_spec.async
        ~on_failure:spec.Dispatcher.Handler_spec.on_failure
        ~guard:closure_guard handler in
    match spec.Dispatcher.Handler_spec.bound_cycles with
    | Some _ -> Some (closure_install ())
    | None ->
      let prog = Ebc.match_string ~prefix path in
      (match
         Dispatcher.install ev ~installer
           ~spec:{ spec with Dispatcher.Handler_spec.verified = Some prog }
           handler
       with
       | Ok h -> Some h
       | Error _ -> Some (closure_install ()))

let set_fallback t body = t.fallback <- Some body

type stats = {
  requests : int;
  ok : int;
  not_found : int;
  dynamic : int;
  fallbacks : int;
  bytes_served : int;
}

let stats t = {
  requests = t.s_requests;
  ok = t.s_ok;
  not_found = t.s_not_found;
  dynamic = t.s_dynamic;
  fallbacks = t.s_fallbacks;
  bytes_served = t.s_bytes;
}
