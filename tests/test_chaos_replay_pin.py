"""Chaos seeds replay to committed digests.

Seeds 0–19 of two campaign shapes — the stock ``CampaignConfig()`` and
the replication-attack profile of ``test_chaos_replication`` (three
replicas, write quorum two) — each reduce to one golden line:

    <profile> <seed> quiesced=<bool> passed=<bool> trace=<sha256> state=<sha256>

``trace`` hashes ``"\\n".join(result.trace)``; ``state`` hashes
``json.dumps(result.world_state, sort_keys=True, default=str)``.  The
world state is part of the pin because the stock trace alone does not
show replication (several seeds hash the same with and without it).

Every seed is deterministic (simulated clock, seeded rngs, no hash
ordering), so a changed line means the framework behaves differently
under that schedule.  To re-pin after a deliberate change, run

    PYTHONPATH=src python tests/test_chaos_replay_pin.py --write

and name each moved seed and its cause in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.chaos import CampaignConfig, ChaosProfile, run_campaign

GOLDEN = Path(__file__).resolve().parent / "golden" / "chaos_replay.txt"
SEEDS = range(20)

#: Same profile as ``test_chaos_replication.REPLICA_PROFILE``.
PROFILES: Dict[str, CampaignConfig] = {
    "stock": CampaignConfig(),
    "replicated": CampaignConfig(
        profile=ChaosProfile(
            replica_loss_probability=0.10, disk_wipe_probability=0.06
        ),
        replicas=3,
        write_quorum=2,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_line(profile: str, seed: int) -> str:
    result = run_campaign(seed, PROFILES[profile])
    state = json.dumps(result.world_state, sort_keys=True, default=str)
    return (
        f"{profile} {seed} quiesced={result.quiesced} passed={result.passed}"
        f" trace={_sha(chr(10).join(result.trace))} state={_sha(state)}"
    )


def _golden() -> Dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {" ".join(line.split()[:2]): line for line in lines if line.strip()}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_seeds_replay_to_golden(profile: str) -> None:
    golden = _golden()
    moved = []
    for seed in SEEDS:
        expected = golden.get(f"{profile} {seed}")
        actual = digest_line(profile, seed)
        if actual != expected:
            moved.append(f"  {profile} seed {seed}\n    want {expected}\n    got  {actual}")
    assert not moved, "chaos seeds moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_chaos_replay_pin.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        "".join(
            digest_line(profile, seed) + "\n"
            for profile in sorted(PROFILES)
            for seed in SEEDS
        ),
        encoding="utf-8",
    )
