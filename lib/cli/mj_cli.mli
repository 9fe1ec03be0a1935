(** The engine-configuration flags shared by [mjoin] and the bench
    harness: [--engine], [--domains], [--policy], [--telemetry] and
    [--morsel] ([mjoin]); the bench takes the first two, since each of
    its experiments fixes its own lowering policy.  Every flag
    is optional; the precedence is CLI flag > environment variable >
    built-in default, implemented by [Engine.Config.make] over the
    one-time env read of [Engine.Config.of_env]. *)

type flags = {
  plane : Mj_engine.Engine.plane option;
  domains : int option;
  policy : Mj_engine.Planner.policy option;
  telemetry : string option;
  morsel : int option;
}

val config_term : flags Cmdliner.Term.t
(** All five flags. *)

val engine_term : flags Cmdliner.Term.t
(** Only [--engine] and [--domains], for a program that reads no
    policy, telemetry or morsel setting; those fields are [None]. *)

val make_config :
  ?obs:Mj_obs.Obs.sink -> flags -> Mj_engine.Engine.Config.t
