(** Arrival processes for the simulations: the times at which users
    send mail, or at which jobs reach a server queue.  Who sends to
    whom is the scenario driver's choice ([Mail.Scenario]). *)

val poisson_arrivals : rng:Dsim.Rng.t -> rate:float -> horizon:float -> float list
(** Event times of a Poisson process of the given rate on
    [\[0, horizon)], ascending.  [rate <= 0.] yields []. *)

val uniform_arrivals : rng:Dsim.Rng.t -> count:int -> horizon:float -> float list
(** [count] times uniform on [\[0, horizon)], ascending. *)
