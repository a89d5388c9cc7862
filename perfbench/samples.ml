(* Raw latency samples in virtual cycles. Percentiles are exact:
   nearest rank over the sorted samples, never a histogram bucket. *)

type t = { mutable data : int array; mutable n : int }

let create cap = { data = Array.make (max 16 cap) 0; n = 0 }

let add t v =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Int.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it. *)
let rank n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank n p)

(* Samples strictly above the nearest-rank [p] position: the tail that
   percentile rests on. *)
let beyond n p = if n = 0 then 0 else n - 1 - rank n p

let us cycles = Spin_machine.Cost.cycles_to_us Spin_machine.Cost.alpha_133 cycles
