(* Extension bytecode with an install-time verifier. See ebc.mli for
   the model. The verifier is an abstract interpretation over register
   initialization and types; because jumps are forward-only and the
   sole back edge is the statically counted [Loop], a single in-order
   pass per block suffices and the step bound is a static sum. *)

type reg = int

let nregs = 8

type instr =
  | Ldi of reg * int
  | Ldf of reg * int
  | Ldb of reg * int
  | Ldw of reg * int
  | Len of reg
  | Ldc of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Eq of reg * reg * reg
  | Lt of reg * reg * reg
  | Not of reg * reg
  | Jmp of int
  | Jz of reg * int
  | Jnz of reg * int
  | Loop of int * int
  | Ret of reg

type program = instr array

type 'a layout = {
  l_name : string;
  l_fields : (string * Ty.t) array;
  l_read : 'a -> int -> int;
  l_payload : ('a -> Bytes.t * int * int) option;
}

let layout ~name ?(fields = []) ?read ?payload () =
  { l_name = name;
    l_fields = Array.of_list fields;
    l_read = (match read with Some r -> r | None -> fun _ _ -> 0);
    l_payload = payload }

type cap_slot = {
  cs_name : string;
  cs_ty : Ty.t;
  cs_read : unit -> int;
}

let cap_slot ~name ~ty cap =
  { cs_name = name; cs_ty = ty;
    cs_read = (fun () -> if Capability.is_valid cap then Capability.id cap else -1) }

let cap_slots_of_object obj =
  let exports = Object_file.exports obj in
  Array.of_list
    (List.mapi
       (fun i (sym, _) ->
         { cs_name = Symbol.full_name sym; cs_ty = sym.Symbol.ty;
           cs_read = (fun () -> i) })
       exports)

type rty = Rint | Rbool | Rtext | Rcap of Ty.t

let rty_to_string = function
  | Rint -> "int"
  | Rbool -> "bool"
  | Rtext -> "text"
  | Rcap ty -> "cap<" ^ Ty.to_string ty ^ ">"

type error =
  | Empty
  | Too_long of int
  | Bad_register of { pc : int; reg : int }
  | Uninitialized of { pc : int; reg : int }
  | Field_out_of_range of { pc : int; slot : int; fields : int }
  | Ill_typed_field of { pc : int; slot : int; ty : Ty.t }
  | No_payload of { pc : int }
  | Payload_out_of_range of { pc : int; off : int }
  | Cap_out_of_range of { pc : int; slot : int; caps : int }
  | Ill_typed of { pc : int; expected : rty; found : rty }
  | Ill_typed_compare of { pc : int; left : rty; right : rty }
  | Backward_jump of { pc : int; target : int }
  | Jump_out_of_block of { pc : int; target : int }
  | Bad_loop of { pc : int }
  | Over_budget of { steps : int; budget : int }
  | Missing_ret
  | No_layout of string

let error_to_string = function
  | Empty -> "empty program"
  | Too_long n -> Printf.sprintf "program too long (%d instructions)" n
  | Bad_register { pc; reg } -> Printf.sprintf "pc %d: bad register r%d" pc reg
  | Uninitialized { pc; reg } ->
    Printf.sprintf "pc %d: read of uninitialized r%d" pc reg
  | Field_out_of_range { pc; slot; fields } ->
    Printf.sprintf "pc %d: field slot %d out of range (%d fields)" pc slot fields
  | Ill_typed_field { pc; slot; ty } ->
    Printf.sprintf "pc %d: field slot %d has unloadable type %s" pc slot
      (Ty.to_string ty)
  | No_payload { pc } -> Printf.sprintf "pc %d: event has no payload" pc
  | Payload_out_of_range { pc; off } ->
    Printf.sprintf "pc %d: payload offset %d out of range" pc off
  | Cap_out_of_range { pc; slot; caps } ->
    Printf.sprintf "pc %d: capability slot %d never granted (%d slots)" pc slot
      caps
  | Ill_typed { pc; expected; found } ->
    Printf.sprintf "pc %d: expected %s, found %s" pc (rty_to_string expected)
      (rty_to_string found)
  | Ill_typed_compare { pc; left; right } ->
    Printf.sprintf "pc %d: compare of %s against %s" pc (rty_to_string left)
      (rty_to_string right)
  | Backward_jump { pc; target } ->
    Printf.sprintf "pc %d: backward jump to %d" pc target
  | Jump_out_of_block { pc; target } ->
    Printf.sprintf "pc %d: jump to %d escapes its block" pc target
  | Bad_loop { pc } -> Printf.sprintf "pc %d: malformed loop" pc
  | Over_budget { steps; budget } ->
    Printf.sprintf "terminates in %d steps, over the %d-step budget" steps budget
  | Missing_ret -> "control can fall off the end without Ret"
  | No_layout ev -> Printf.sprintf "event %s published no layout" ev

type cert = {
  c_steps : int;
  c_loops : int;
  c_field_loads : int;
  c_payload_loads : int;
  c_cap_loads : int;
}

let default_budget = 4096
let max_offset = 65536
let max_program = 4096

exception Reject of error

(* Verifier state: per-register [None] = uninitialized. *)

let rty_equal a b =
  match a, b with
  | Rcap x, Rcap y -> Ty.equal x y
  | a, b -> a = b

let merge_state a b =
  Array.init nregs (fun i ->
    match a.(i), b.(i) with
    | Some x, Some y when rty_equal x y -> Some x
    | _ -> None)

let state_equal a b =
  let ok = ref true in
  for i = 0 to nregs - 1 do
    (match a.(i), b.(i) with
     | Some x, Some y when rty_equal x y -> ()
     | None, None -> ()
     | _ -> ok := false)
  done;
  !ok

(* Saturating arithmetic so nested Loop multipliers can't overflow. *)
let sat_cap = 1 lsl 40
let sat_add a b = let s = a + b in if s < 0 || s > sat_cap then sat_cap else s
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > sat_cap / b then sat_cap
  else a * b

let verify ~layout ?(caps = [||]) ?(budget = default_budget) code =
  let n = Array.length code in
  let nfields = Array.length layout.l_fields in
  let has_payload = layout.l_payload <> None in
  let ncaps = Array.length caps in
  let loops = ref 0 and field_loads = ref 0 and payload_loads = ref 0
  and cap_loads = ref 0 in
  let check_reg pc r =
    if r < 0 || r >= nregs then raise (Reject (Bad_register { pc; reg = r })) in
  let read st pc r =
    check_reg pc r;
    match st.(r) with
    | Some t -> t
    | None -> raise (Reject (Uninitialized { pc; reg = r })) in
  let write st pc r t =
    check_reg pc r;
    let st' = Array.copy st in
    st'.(r) <- Some t;
    st' in
  (* Verify the block [pc0, stop) entered with [entry]; return the
     state with which control can fall off the end of the block (None
     if every path Rets) and a saturating upper bound on executed
     steps. Jump targets must stay within the block and may not land
     inside a reachable Loop body — the interpreter enters bodies only
     through their Loop instruction. *)
  let rec block pc0 stop entry =
    let states = Array.make (stop - pc0 + 1) None in
    let set i st =
      let idx = i - pc0 in
      states.(idx) <-
        (match states.(idx) with
         | None -> Some st
         | Some old -> Some (merge_state old st)) in
    set pc0 entry;
    let steps = ref 0 in
    let check_target pc d =
      let target = pc + 1 + d in
      if d < 0 then raise (Reject (Backward_jump { pc; target }));
      if target > stop then raise (Reject (Jump_out_of_block { pc; target }));
      target in
    let i = ref pc0 in
    while !i < stop do
      let pc = !i in
      (match states.(pc - pc0) with
       | None -> steps := sat_add !steps 1; incr i
       | Some st ->
         (match code.(pc) with
          | Loop (count, len) ->
            if count < 0 || len < 1 || pc + 1 + len > stop then
              raise (Reject (Bad_loop { pc }));
            (* No earlier jump may have targeted the body's interior:
               at run time the only way in is through this Loop. *)
            for b = pc + 1 to pc + len do
              if states.(b - pc0) <> None then
                raise (Reject (Jump_out_of_block { pc; target = b }))
            done;
            incr loops;
            (* Iterate the body's entry state to a fixpoint: the state
               reaching iteration k+1 is the merge of the entry with
               iteration k's exit. The lattice only moves registers
               toward uninitialized, so this terminates in <= nregs+1
               rounds. *)
            let s = ref st in
            let body_steps = ref 0 in
            let stable = ref false in
            while not !stable do
              let fall, bsteps = block (pc + 1) (pc + 1 + len) !s in
              body_steps := bsteps;
              let exit = match fall with Some f -> f | None -> !s in
              let merged = merge_state !s exit in
              if state_equal merged !s then stable := true else s := merged
            done;
            steps :=
              sat_add !steps (sat_add 1 (sat_mul count (sat_add !body_steps 1)));
            set (pc + 1 + len) !s;
            i := pc + 1 + len
          | instr ->
            steps := sat_add !steps 1;
            (match instr with
             | Ldi (r, _) -> set (pc + 1) (write st pc r Rint)
             | Ldf (r, slot) ->
               if slot < 0 || slot >= nfields then
                 raise (Reject (Field_out_of_range { pc; slot; fields = nfields }));
               let _, fty = layout.l_fields.(slot) in
               let rt =
                 match fty with
                 | Ty.Int -> Rint
                 | Ty.Bool -> Rbool
                 | Ty.Text -> Rtext
                 | ty -> raise (Reject (Ill_typed_field { pc; slot; ty })) in
               incr field_loads;
               set (pc + 1) (write st pc r rt)
             | Ldb (r, off) | Ldw (r, off) ->
               if not has_payload then raise (Reject (No_payload { pc }));
               if off < 0 || off >= max_offset then
                 raise (Reject (Payload_out_of_range { pc; off }));
               incr payload_loads;
               set (pc + 1) (write st pc r Rint)
             | Len r ->
               if not has_payload then raise (Reject (No_payload { pc }));
               set (pc + 1) (write st pc r Rint)
             | Ldc (r, slot) ->
               if slot < 0 || slot >= ncaps then
                 raise (Reject (Cap_out_of_range { pc; slot; caps = ncaps }));
               incr cap_loads;
               set (pc + 1) (write st pc r (Rcap caps.(slot).cs_ty))
             | Mov (d, s) ->
               let t = read st pc s in
               set (pc + 1) (write st pc d t)
             | Add (d, a, b) | Sub (d, a, b) ->
               (match read st pc a with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               (match read st pc b with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               set (pc + 1) (write st pc d Rint)
             | And (d, a, b) | Or (d, a, b) ->
               let ta = read st pc a and tb = read st pc b in
               (match ta, tb with
                | Rint, Rint -> set (pc + 1) (write st pc d Rint)
                | Rbool, Rbool -> set (pc + 1) (write st pc d Rbool)
                | _ ->
                  raise (Reject (Ill_typed { pc; expected = ta; found = tb })))
             | Eq (d, a, b) ->
               let ta = read st pc a and tb = read st pc b in
               if not (rty_equal ta tb) then
                 raise (Reject (Ill_typed_compare { pc; left = ta; right = tb }));
               set (pc + 1) (write st pc d Rbool)
             | Lt (d, a, b) ->
               (match read st pc a with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               (match read st pc b with
                | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rint; found = t })));
               set (pc + 1) (write st pc d Rbool)
             | Not (d, s) ->
               (match read st pc s with
                | Rbool -> set (pc + 1) (write st pc d Rbool)
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })))
             | Jmp d -> set (check_target pc d) st
             | Jz (r, d) | Jnz (r, d) ->
               (match read st pc r with
                | Rbool | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })));
               set (check_target pc d) st;
               set (pc + 1) st
             | Ret r ->
               (match read st pc r with
                | Rbool | Rint -> ()
                | t -> raise (Reject (Ill_typed { pc; expected = Rbool; found = t })))
             | Loop _ -> assert false);
            incr i));
    done;
    (states.(stop - pc0), !steps) in
  try
    if n = 0 then raise (Reject Empty);
    if n > max_program then raise (Reject (Too_long n));
    let entry = Array.make nregs None in
    let fall, steps = block 0 n entry in
    if fall <> None then raise (Reject Missing_ret);
    if steps > budget then raise (Reject (Over_budget { steps; budget }));
    Ok { c_steps = steps; c_loops = !loops; c_field_loads = !field_loads;
         c_payload_loads = !payload_loads; c_cap_loads = !cap_loads }
  with Reject e -> Error e

(* Runs [code] from [pc0] up to [stop]: 0/1 for Ret, -1 when control
   falls off [stop]. Everything the program reads is an argument and
   the loop state lives in registers, so a run allocates nothing. *)
let rec exec code caps read_field arg buf base len regs pc0 stop =
  let pc = ref pc0 and res = ref (-1) in
  while !res < 0 && !pc < stop do
    let i = !pc in
    pc := i + 1;
    match Array.unsafe_get code i with
    | Ldi (r, v) -> Array.unsafe_set regs r v
    | Ldf (r, slot) -> Array.unsafe_set regs r (read_field arg slot)
    | Ldb (r, off) ->
      Array.unsafe_set regs r
        (if off < len then Char.code (Bytes.unsafe_get buf (base + off))
         else 0)
    | Ldw (r, off) ->
      Array.unsafe_set regs r
        (if off + 1 < len then
           Char.code (Bytes.unsafe_get buf (base + off))
           lor (Char.code (Bytes.unsafe_get buf (base + off + 1)) lsl 8)
         else 0)
    | Len r -> Array.unsafe_set regs r len
    | Ldc (r, slot) ->
      Array.unsafe_set regs r ((Array.unsafe_get caps slot).cs_read ())
    | Mov (d, s) -> Array.unsafe_set regs d (Array.unsafe_get regs s)
    | Add (d, a, b) ->
      Array.unsafe_set regs d (Array.unsafe_get regs a + Array.unsafe_get regs b)
    | Sub (d, a, b) ->
      Array.unsafe_set regs d (Array.unsafe_get regs a - Array.unsafe_get regs b)
    | And (d, a, b) ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a land Array.unsafe_get regs b)
    | Or (d, a, b) ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a lor Array.unsafe_get regs b)
    | Eq (d, a, b) ->
      Array.unsafe_set regs d
        (if Array.unsafe_get regs a = Array.unsafe_get regs b then 1 else 0)
    | Lt (d, a, b) ->
      Array.unsafe_set regs d
        (if Array.unsafe_get regs a < Array.unsafe_get regs b then 1 else 0)
    | Not (d, s) ->
      Array.unsafe_set regs d (if Array.unsafe_get regs s = 0 then 1 else 0)
    | Jmp d -> pc := i + 1 + d
    | Jz (r, d) -> if Array.unsafe_get regs r = 0 then pc := i + 1 + d
    | Jnz (r, d) -> if Array.unsafe_get regs r <> 0 then pc := i + 1 + d
    | Loop (count, len_) ->
      let bstop = i + 1 + len_ in
      let k = ref 0 in
      while !res < 0 && !k < count do
        res := exec code caps read_field arg buf base len regs (i + 1) bstop;
        incr k
      done;
      pc := bstop
    | Ret r -> res := if Array.unsafe_get regs r <> 0 then 1 else 0
  done;
  !res

(* The trusted-fast interpreter: no register bounds checks, no step
   counting — the certificate already proved both. Payload reads keep
   their dynamic length clamp (part of the verified semantics, like a
   BPF packet read beyond the frame yielding 0). The register file is
   allocated once per compiled program and reused; a re-entrant run (a
   field or capability read that reaches the same filter again) gets a
   fresh one. *)
let compile ~layout ?(caps = [||]) code =
  let read_field = layout.l_read in
  let uses_payload =
    Array.exists
      (function Ldb _ | Ldw _ | Len _ -> true | _ -> false)
      code in
  let payload = layout.l_payload in
  let stop0 = Array.length code in
  let shared = Array.make nregs 0 and busy = ref false in
  fun arg ->
    let buf, base, len =
      if uses_payload then
        match payload with Some p -> p arg | None -> (Bytes.empty, 0, 0)
      else (Bytes.empty, 0, 0) in
    if !busy then
      let regs = Array.make nregs 0 in
      exec code caps read_field arg buf base len regs 0 stop0 = 1
    else begin
      busy := true;
      Array.fill shared 0 nregs 0;
      match exec code caps read_field arg buf base len shared 0 stop0 with
      | r -> busy := false; r = 1
      | exception exn -> busy := false; raise exn
    end

(* Checked reference interpreter with a step counter: the oracle the
   certificate is tested against. *)
let run_counted ~layout ?(caps = [||]) code arg =
  let buf, base, len =
    match layout.l_payload with Some p -> p arg | None -> (Bytes.empty, 0, 0) in
  let regs = Array.make nregs 0 in
  let steps = ref 0 in
  let stop0 = Array.length code in
  let rec go pc stop =
    if pc >= stop then -1
    else begin
      incr steps;
      match code.(pc) with
      | Ldi (r, v) -> regs.(r) <- v; go (pc + 1) stop
      | Ldf (r, slot) -> regs.(r) <- layout.l_read arg slot; go (pc + 1) stop
      | Ldb (r, off) ->
        regs.(r) <-
          (if off < len then Char.code (Bytes.get buf (base + off)) else 0);
        go (pc + 1) stop
      | Ldw (r, off) ->
        regs.(r) <-
          (if off + 1 < len then
             Char.code (Bytes.get buf (base + off))
             lor (Char.code (Bytes.get buf (base + off + 1)) lsl 8)
           else 0);
        go (pc + 1) stop
      | Len r -> regs.(r) <- len; go (pc + 1) stop
      | Ldc (r, slot) -> regs.(r) <- caps.(slot).cs_read (); go (pc + 1) stop
      | Mov (d, s) -> regs.(d) <- regs.(s); go (pc + 1) stop
      | Add (d, a, b) -> regs.(d) <- regs.(a) + regs.(b); go (pc + 1) stop
      | Sub (d, a, b) -> regs.(d) <- regs.(a) - regs.(b); go (pc + 1) stop
      | And (d, a, b) -> regs.(d) <- regs.(a) land regs.(b); go (pc + 1) stop
      | Or (d, a, b) -> regs.(d) <- regs.(a) lor regs.(b); go (pc + 1) stop
      | Eq (d, a, b) -> regs.(d) <- (if regs.(a) = regs.(b) then 1 else 0);
        go (pc + 1) stop
      | Lt (d, a, b) -> regs.(d) <- (if regs.(a) < regs.(b) then 1 else 0);
        go (pc + 1) stop
      | Not (d, s) -> regs.(d) <- (if regs.(s) = 0 then 1 else 0);
        go (pc + 1) stop
      | Jmp d -> go (pc + 1 + d) stop
      | Jz (r, d) -> go (if regs.(r) = 0 then pc + 1 + d else pc + 1) stop
      | Jnz (r, d) -> go (if regs.(r) <> 0 then pc + 1 + d else pc + 1) stop
      | Loop (count, len_) ->
        let bstop = pc + 1 + len_ in
        let res = ref (-1) in
        let k = ref 0 in
        while !res = -1 && !k < count do
          res := go (pc + 1) bstop;
          incr k
        done;
        if !res >= 0 then !res else go bstop stop
      | Ret r -> if regs.(r) <> 0 then 1 else 0
    end in
  (go 0 stop0 = 1, !steps)

(* Install-time cost model: one linear verifier pass over the program.
   Cheap enough to pay per install, never per event. *)
let verify_instruction_cost = 35
let verify_fixed_cost = 250
let verify_cycles code =
  verify_fixed_cost + (verify_instruction_cost * Array.length code)

(* ~2 cycles per compiled instruction on the simulated Alpha: used to
   turn a caller's cycle bound into a step budget at install time. *)
let step_cycles = 2

(* Builders for the predicate shapes the facades compile. Register
   discipline: r0 scratch loads, r1 immediates, r2 accumulator,
   r3 per-term scratch. *)

let match_field ~slot v =
  [| Ldf (0, slot); Ldi (1, v); Eq (2, 0, 1); Ret 2 |]

let match_field_any ~slot vs =
  match vs with
  | [] -> [| Ldi (0, 0); Ret 0 |]
  | v0 :: rest ->
    let body =
      List.concat_map
        (fun v -> [ Ldi (1, v); Eq (3, 0, 1); Or (2, 2, 3) ])
        rest in
    Array.of_list
      ((Ldf (0, slot) :: Ldi (1, v0) :: Eq (2, 0, 1) :: body) @ [ Ret 2 ])

let match_string ?(prefix = false) s =
  let n = String.length s in
  let fail = [ Ldi (0, 0); Ret 0 ] in
  let len_check =
    if prefix then []
    else [ Len 0; Ldi (1, n); Eq (2, 0, 1); Jnz (2, 2) ] @ fail in
  let char_checks =
    List.concat_map
      (fun i ->
        [ Ldb (0, i); Ldi (1, Char.code s.[i]); Eq (2, 0, 1); Jnz (2, 2) ]
        @ fail)
      (List.init n Fun.id) in
  Array.of_list (len_check @ char_checks @ [ Ldi (0, 1); Ret 0 ])

(* Bytecode as a first-class export: programs travel through object
   files like any other typed symbol. *)

let program_ty = Ty.Opaque "Ebc.Program"

let program_tag : program Univ.tag = Univ.tag ~name:"Ebc.Program" ()

let export_program builder ~intf ~name prog =
  Object_file.Builder.export builder
    (Symbol.make ~intf ~name program_ty)
    (Univ.pack program_tag prog)

let verify_object ~layout obj =
  let caps = cap_slots_of_object obj in
  let rec check n = function
    | [] -> Ok n
    | (sym, v) :: rest ->
      (match Univ.unpack program_tag v with
       | None -> check n rest
       | Some prog ->
         (match verify ~layout ~caps prog with
          | Ok _ -> check (n + 1) rest
          | Error e -> Error (Symbol.full_name sym, e)))
  in
  check 0 (Object_file.exports obj)
