(** The fuzz driver: campaigns, shrinking, repro files, self-test.

    A campaign derives one descriptor per case index from
    [(seed, index)] alone, so [--seed N --cases M] names the exact
    same case list in every process and any failing index can be
    regenerated without replaying the whole run.  Failures are
    greedily {!minimize}d over {!Gen.shrink} before being reported.

    Repro files are {!Gen.to_string} descriptors extended with two
    optional keys: [failpoints=] (a {!Mj_failpoint.Failpoint.set_spec}
    list to plant before the case runs) and [expect=fail|pass]
    (default [fail]).  {!replay} succeeds iff the case's outcome
    matches the expectation — so a committed repro of a planted fault
    is a permanent, deterministic regression test. *)

type expectation = Expect_pass | Expect_fail

type repro = {
  descriptor : Gen.descriptor;
  failpoints : string;  (** [""] for none *)
  expect : expectation;
}

val repro_to_string : repro -> string
val repro_of_string : string -> (repro, string) result

val replay : repro -> (string, string) result
(** Plant the repro's failpoints (restoring prior failpoint state
    afterwards), run the case, and compare the outcome against the
    expectation: [Ok] iff they match, with a human-readable account
    either way. *)

val minimize :
  ?faults:bool ->
  Gen.descriptor ->
  Check.failure ->
  Gen.descriptor * Check.failure
(** Greedy descent over {!Gen.shrink}: keep the first structurally
    smaller candidate that still fails (any check), until none does.
    Terminates because every shrink candidate strictly decreases the
    well-founded measure. *)

val case_descriptor : seed:int -> max_n:int -> int -> Gen.descriptor
(** The descriptor campaign [(seed, max_n)] runs at a case index. *)

val campaign :
  ?progress:(int -> Gen.descriptor -> Check.outcome -> unit) ->
  ?max_n:int ->
  seed:int ->
  cases:int ->
  unit ->
  (int * Gen.descriptor * Gen.descriptor * Check.failure) list
(** Run [cases] cases; each failure is minimized and reported as
    [(index, original, minimized, failure)].  [max_n] defaults to 5 so
    the theorem postcondition check runs on every case. *)

val self_test : unit -> (string, string) result
(** Certify the harness can actually catch bugs: a clean fixed case
    must pass; then, for each planted mutation in turn —
    [frame.lossy_join], [yann.lossy_semijoin] (on an acyclic twin of
    the case), [frame.skip_root_sort], [frame.certify_bucket] and
    [frame.lost_morsel] (all
    caught by the matrix's digest checks, on the hash the daemon serves
    without decoding), [frame.morsel_order] (caught by the emission
    check), [serve.cache_stale_plan] (caught by the serve leg's τ-log
    comparison against a cold run), [cost.cp_product] (caught by the
    theorem checks), [cost.count_message] and [cost.count_merge]
    (caught by the first check that reads the default, [Frame]-counted
    cache; the merge's repro shrinks onto a cycle) and
    [conditions.keep_neighbors] (on a uniform twin of the case, caught
    by the theorem checks) — the case must fail under the expected
    check family, the failure must shrink to at most 4 relations, and
    the minimized repro must still fail planted and pass clean.
    [frame.lost_morsel] and [frame.morsel_order] live on the hash
    join's pool path: when [Mj_pool.Pool.workers 4 = 1] no join takes
    it, and the summary reports those faults as skipped, not caught.
    The summary opens with the host's core count ([Mj_pool.Pool.cores]).
    Returns a human-readable summary on success. *)
