(** The one clock every deadline and latency in [lib/] reads.

    Monotonic seconds since an arbitrary origin: differences between two
    readings are elapsed time, and a wall-clock step (NTP, a manual
    [date]) can neither fire a deadline early nor stretch it. Readings are
    only comparable within one process. *)

val now : unit -> float
