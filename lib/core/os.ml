module Costs = Ufork_sim.Costs
module Config = Ufork_sas.Config

type t = { sys : System.t; strategy : Strategy.t }

let boot ?(cores = 4) ?(config = Config.ufork_fast) ?(costs = Costs.ufork)
    ?(strategy = Strategy.Copa) ?(proactive = true) () =
  let sys =
    System.make ~cores ~config ~costs ~multi_address_space:false ()
  in
  Fork.install ~proactive (System.kernel sys) ~strategy;
  { sys; strategy }

let system t = t.sys
let kernel t = System.kernel t.sys
let engine t = System.engine t.sys
let trace t = System.trace t.sys

let start t ?affinity ~image main = System.start t.sys ?affinity ~image main
let run ?until t = System.run ?until t.sys
