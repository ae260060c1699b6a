"""The benchmark's workloads: instance specs for ``generate`` and run configs for ``reconstruct``.

Every workload uses 4 receivers, 4 ``harmonics`` basis images, ``blobs``
phantoms, 50% masks and relative noise.  Instance ``j`` of a run draws its
spec seed from the workload seed, so the program only ever sees the
generated instance directories.  ``instances`` is sized so that every
instance runs at least once within the timed phase.  Masks alternate over
``masks`` by instance index, so every run holds the same mix of mask
families.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    masks: tuple[str, ...]
    noise: float
    run: dict = field(default_factory=dict)
    instances: int = 8

    def spec(self, seed: int, j: int) -> dict:
        """Instance spec of instance ``j`` for workload seed ``seed``."""
        return {
            "p_hor": self.size,
            "p_ver": self.size,
            "r_num": 4,
            "basis_family": "harmonics",
            "b_num": 4,
            "mask_family": self.masks[j % len(self.masks)],
            "mask_fraction": 0.5,
            "phantom_family": "blobs",
            "deltas": self.noise,
            "delta_mode": "relative",
            "seed": seed * 1000 + j,
        }

    @property
    def joint(self) -> bool:
        return bool(self.run.get("joint", False))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="llk_scaled",
            size=16,
            masks=("random", "rows"),
            noise=0.05,
            run={"method": "llk"},
            instances=64,
        ),
        Workload(
            name="lsdk_128",
            size=128,
            masks=("rows",),
            noise=0.05,
            run={"method": "lsdk"},
            instances=16,
        ),
        Workload(
            name="lsdk_npow2",
            size=36,
            masks=("rows",),
            noise=0.05,
            run={"method": "lsdk"},
            instances=64,
        ),
        Workload(
            name="joint_lsdk",
            size=32,
            masks=("random",),
            noise=0.01,
            run={"method": "lsdk", "joint": True, "max_cycles": 100},
            instances=36,
        ),
    )
}
