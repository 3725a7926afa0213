(** Hashtables keyed by ints (addresses, object ids, packed keys), hashed by
    identity: the profiler's per-run state looks them up on every memory
    access. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
