"""Strategic scheduling on unrelated machines: payment rules that award each
task to its lowest bidder, exact optimal makespans, grid-equilibrium
enumeration, and the worst-case/best-case inefficiency frontier those
equilibria trace out.

`import mechfront` binds the six library modules and no other name: each
public name has one path, `mechfront.<module>.<name>`."""

from . import analysis, equilibria, instances, model, optsolver, rules

__version__ = "0.1.0"
