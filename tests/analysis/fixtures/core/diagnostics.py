"""Fixture: a per-record loop in ``core/diagnostics.py`` (REP007)."""


def matches(policy, trace):
    """Count logged decisions that equal the policy's greedy choice."""
    count = 0
    for record in trace:
        if record.decision == policy.greedy_decision(record.context):
            count += 1
    return count
