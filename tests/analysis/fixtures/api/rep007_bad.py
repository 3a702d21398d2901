"""Fixture: per-record greedy/distribution calls on the facade path (REP007)."""


def match_count(policy, trace):
    return sum(
        1
        for record in trace
        if record.decision == policy.greedy_decision(record.context)
    )


def entropies(policy, contexts):
    values = []
    for context in contexts:
        distribution = policy.probabilities(context)
        values.append(len(distribution))
    return values
