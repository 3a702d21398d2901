"""Fixture: the REP007 loops outside the facade path pass."""


def matches(policy, trace):
    return sum(
        1
        for record in trace
        if record.decision == policy.greedy_decision(record.context)
    )


def distributions(policy, contexts):
    return [policy.probabilities(context) for context in contexts]
