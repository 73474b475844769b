(* A named measurement with its unit, and the order statistics the
   benchmark reports. *)

type t = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Nearest rank; nan when empty. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let to_json x = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_
