(* Every duration the benchmark reports comes from the monotonic clock:
   wall-clock adjustments must never show up as latency. *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile, [q] in [0, 1]; nan on no samples. *)
let quantile (q : float) (xs : float list) : float =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
