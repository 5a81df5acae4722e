(** Raw samples (virtual ns) with exact order-statistic percentiles — no
    histogram buckets, so p99 carries no bucketing error. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 256 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

(** Nearest-rank percentiles ([ps] in (0, 1]) of the samples: the smallest
    sample with at least that share of samples at or below it. [None] when
    there are no samples. *)
let percentiles t ps =
  if t.n = 0 then List.map (fun _ -> None) ps
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    List.map
      (fun p ->
        let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
        Some s.(max 0 (min (t.n - 1) (rank - 1))))
      ps
  end
