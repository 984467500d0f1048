(** Process-wide metrics registry: counters, gauges and fixed-bucket
    histograms, exposable as Prometheus text format or as structured
    samples.

    The registry is global on purpose: instrumentation sites all over
    the tree (search, server, journal) register their metrics at module
    initialisation and update them with plain [Atomic] operations, so
    the hot-path cost of an update is one atomic add and the cost when
    a subsystem is unused is zero.  Registration is idempotent: asking
    for an already-registered name/label pair returns the existing
    metric, so libraries and their tests can both name the same
    counter.  Values are monotonic for counters and never reset — see
    the [stats] op contract in [Protocol]. *)

type counter
type histogram

(** [counter ?help ?labels name] registers (or finds) a counter.
    Raises [Invalid_argument] on a malformed metric or label name, or
    if [name] is already registered as a different metric kind. *)
val counter : ?help:string -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** [gauge_fn name f] registers a pull gauge: [f] is evaluated at
    snapshot/exposition time.  Re-registering replaces the function —
    the newest owner of the underlying state (e.g. the latest server
    instance in a test process) wins.  [f] must not call back into the
    registry. *)
val gauge_fn : ?help:string -> ?labels:(string * string) list -> string -> (unit -> int) -> unit

(** Histograms record durations in seconds into fixed log-scale
    buckets ([bucket_bounds]), so observation is allocation-free and
    merge-free: one atomic add per bucket plus a running sum. *)
val histogram : ?help:string -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit

(** Convenience: observe the elapsed time of [f] in seconds. *)
val now_s : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: for
    durations and deadlines, which a wall-clock step must not move. *)

val time : histogram -> (unit -> 'a) -> 'a

(** Upper bounds (in seconds) of the finite histogram buckets, in
    increasing order: [1e-6 * 4^i] for [i = 0..12], i.e. 1µs up to
    ~16.8s.  A final implicit [+Inf] bucket catches the rest. *)
val bucket_bounds : float array

(** Cumulative bucket counts (one per [bucket_bounds] entry, plus the
    [+Inf] bucket last), total count and sum of observations. *)
type histogram_snapshot = {
  buckets : (float * int) array;  (** (upper bound, cumulative count)*)
  inf_count : int;
  count : int;
  sum : float;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

(** Consistent-enough snapshot of every registered metric, sorted by
    name then labels.  Pull gauges are evaluated here; an exception
    from a pull function yields 0 rather than poisoning the scrape. *)
val snapshot : unit -> sample list

(** Prometheus text exposition format (version 0.0.4): one
    [# HELP]/[# TYPE] header per metric family followed by its
    samples; histograms expand to [_bucket]/[_sum]/[_count]. *)
val to_prometheus : unit -> string

(** Number of registered metric families+label combinations (testing). *)
val registered : unit -> int
