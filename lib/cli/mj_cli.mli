(** The engine-configuration flags shared by [mjoin] and the bench
    harness: [--domains], [--policy] and [--telemetry] ([mjoin]); the
    bench takes the first, since each of its experiments fixes its own
    lowering policy.  Every flag is optional; the precedence is CLI
    flag > environment variable > built-in default, implemented by
    [Engine.Config.make] over the one-time env read of
    [Engine.Config.of_env]. *)

type flags = {
  domains : int option;
  policy : Mj_engine.Planner.policy option;
  telemetry : string option;
}

val config_term : flags Cmdliner.Term.t
(** All three flags. *)

val engine_term : flags Cmdliner.Term.t
(** Only [--domains], for a program that reads no policy or telemetry
    setting; those fields are [None]. *)

val make_config :
  ?obs:Mj_obs.Obs.sink -> flags -> Mj_engine.Engine.Config.t
