(** M/M/1 queueing formulas.

    The paper's connection-cost model (§3.1.1) approximates the average
    waiting time at a server by the M/M/1 formula [Q(ρ) = ρ/(1−ρ)]
    (in units of the mean service time), capping it with "a very large
    constant B" once utilisation reaches 0.99.  This module provides
    that estimate plus the exact mean waiting time the simulator's
    server queues are validated against. *)

val paper_q : ?cap:float -> float -> float
(** [paper_q rho] is the paper's waiting-time estimate: [rho /. (1. -. rho)]
    when [rho < 0.99], otherwise the large constant [cap] (default
    [1e6]).  Negative utilisation is treated as 0. *)

val utilization : arrival_rate:float -> service_rate:float -> float
(** ρ = λ/μ. @raise Invalid_argument if [service_rate <= 0.]. *)

val mean_waiting_time : arrival_rate:float -> service_rate:float -> float
(** Wq = ρ / (μ − λ); time an arrival waits before service starts.
    [infinity] when unstable. *)
