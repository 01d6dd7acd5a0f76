let paper_q ?(cap = 1e6) rho =
  let rho = Float.max 0. rho in
  if rho < 0.99 then rho /. (1. -. rho) else cap

let utilization ~arrival_rate ~service_rate =
  if service_rate <= 0. then invalid_arg "Mm1.utilization: service_rate <= 0";
  arrival_rate /. service_rate

let mean_waiting_time ~arrival_rate ~service_rate =
  let rho = utilization ~arrival_rate ~service_rate in
  if rho >= 1. then infinity else rho /. (service_rate -. arrival_rate)
