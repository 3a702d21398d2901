"""Fixture: the facade path's batch forms pass REP007."""


def match_count(policy, trace):
    columns = trace.columns()
    greedy = policy.greedy_decision_batch(columns.contexts)
    return sum(1 for logged, chosen in zip(columns.decisions, greedy) if logged == chosen)


def probability_rows(policy, chunks):
    # Looping over chunks is fine: each call evaluates a whole chunk.
    return [policy.probability_matrix(chunk.columns().contexts) for chunk in chunks]
