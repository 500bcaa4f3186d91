# Why masking matters: the action space is tiny but the sequence space
# is not -- 18 actions and 7 nodes give 18**7 = 612,220,032 graphs.
# Type-hierarchy masking collapses that to a few hundred well-typed ones.

import random

from mathsynth import Environment, exhaustive_solve, generate, random_rollout

env = Environment()
gp = generate("numbers__gcd", 1, seed=3)[0]
print("Q:", gp.problem.question)
print("A:", gp.problem.answer)

print(f"\nunconstrained sequences of length 7: {18**7:,}")

# Masked enumeration of every complete graph up to 4 nodes:
res = exhaustive_solve(env, gp.problem, max_nodes=4, count_all=True)
print(f"masked complete graphs at depth <= 4: {res.n_complete:,}")

# The mask at the root permits only operators; after placing gcd, the two
# Value slots admit the question's numbers plus Value-returning operators.
env.reset(gp.problem)
print("\nroot mask      :", env.compute_mask().astype(int))
env.step(env.registry.index_of("gcd"))
print("value-slot mask:", env.compute_mask().astype(int))

# Random search with and without the mask (reward hits in 2000 rollouts):
rng = random.Random(0)
masked = sum(random_rollout(env, gp.problem, rng).reward for _ in range(2000))
rng = random.Random(0)
unmasked = sum(
    random_rollout(env, gp.problem, rng, respect_mask=False).reward for _ in range(2000)
)
print(f"\nrandom rollouts, masked   : {masked}/2000 rewarded")
print(f"random rollouts, unmasked : {unmasked}/2000 rewarded")

# Bounded exhaustive search in lexicographic order finds a minimal graph.
# Placements that leave more open slots than the depth limit can fill are
# pruned before they are expanded.
res = exhaustive_solve(env, gp.problem, max_nodes=3)
print(f"\nexhaustive solution: {res.actions} "
      f"({res.n_expanded} nodes expanded, {res.n_pruned} pruned)")
