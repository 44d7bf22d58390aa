"""Hidden user features and the one-hot location coding `c^t` (§V-B).

The Info-RNN-GAN conditions on a latent code `C` built from user hidden
features — "we preprocess the location of the data with one-hot encoding
and then treat it as the value of C".  This module provides that encoding
plus a small container for the other hidden features the paper lists
(group tag, mobility pattern, registered base station).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.mec.requests import Request
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["one_hot", "encode_request_locations", "HiddenFeatures"]


def one_hot(index: int, n: int) -> np.ndarray:
    """Length-``n`` one-hot vector with a 1 at ``index``."""
    require_positive("n", n)
    require_non_negative("index", index)
    if index >= n:
        raise ValueError(f"index {index} out of range for one-hot of size {n}")
    vec = np.zeros(n)
    vec[index] = 1.0
    return vec


def encode_request_locations(requests: Sequence[Request], n_hotspots: int) -> np.ndarray:
    """One-hot location codes for a request set: shape ``(|R|, n_hotspots+1)``.

    Column ``n_hotspots`` (the last one) encodes "no hotspot" for users not
    attached to any cluster, so the coding is total over the request set.
    This matrix is the latent code `c` fed to the GAN generator.
    """
    require_positive("n_hotspots", n_hotspots)
    if not requests:
        raise ValueError("need at least one request to encode")
    codes = np.zeros((len(requests), n_hotspots + 1))
    for row, request in enumerate(requests):
        if request.hotspot_index is None:
            codes[row, n_hotspots] = 1.0
        else:
            if request.hotspot_index >= n_hotspots:
                raise ValueError(
                    f"request {request.index} references hotspot "
                    f"{request.hotspot_index} but only {n_hotspots} exist"
                )
            codes[row, request.hotspot_index] = 1.0
    return codes


@dataclass(frozen=True)
class HiddenFeatures:
    """The hidden features of one mobile user (§I: "locations, user group
    tags, and mobility patterns").

    These are what the paper calls *small samples of hidden features* — the
    conditioning information available to the demand predictor, never to
    the caching controller directly.
    """

    user_id: int
    hotspot_index: Optional[int]
    group_tag: str
    registered_station: Optional[int] = None
    mobility: str = "static"

    def as_code(self, n_hotspots: int, group_tags: Sequence[str]) -> np.ndarray:
        """Concatenate one-hot location and one-hot group tag codes.

        The location part matches :func:`encode_request_locations`; the
        group part appends ``len(group_tags)`` extra dimensions.  Unknown
        group tags raise — the vocabulary must be fixed before encoding.
        """
        require_positive("n_hotspots", n_hotspots)
        location = np.zeros(n_hotspots + 1)
        if self.hotspot_index is None:
            location[n_hotspots] = 1.0
        else:
            if self.hotspot_index >= n_hotspots:
                raise ValueError(
                    f"hotspot_index {self.hotspot_index} out of range "
                    f"({n_hotspots} hotspots)"
                )
            location[self.hotspot_index] = 1.0
        tags = list(group_tags)
        if self.group_tag not in tags:
            raise ValueError(
                f"group tag {self.group_tag!r} not in vocabulary {tags}"
            )
        group = one_hot(tags.index(self.group_tag), len(tags))
        return np.concatenate([location, group])
