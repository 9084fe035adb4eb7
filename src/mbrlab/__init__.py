"""mbrlab: desk-scale lab for scheduling Dyna-style model-based RL.

Three connected pieces:

- a mixture-sampled fitted-value-iteration testbed (`mbrlab.fvi`) measuring
  how the best real-data ratio moves with the real-sample budget;
- a compact MBPO stack (`mbrlab.envs`, `mbrlab.world_model`, `mbrlab.sac`,
  `mbrlab.mbpo`) built on a hand-rolled dense-net substrate (`mbrlab.nets`);
- a PPO hyper-controller over the training run (`mbrlab.hyper_mdp`,
  `mbrlab.controller`) plus an experiment harness and CLI
  (`mbrlab.harness`, `mbrlab.cli`).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
