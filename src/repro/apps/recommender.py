"""CP-decomposition recommender (the paper's Section 1 motivation).

Factorizes a (user x item x context) ratings tensor with CP-ALS — every
MTTKRP on the simulated accelerator — and serves predictions and top-K
recommendations from the factor embeddings. "Tensor factorizations provide
a faster, more interpretable, yet competitive method for producing
embeddings for recommender systems."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.factorization.accelerated import AcceleratedRun, accelerated_cp_als
from repro.sim.accelerator import Tensaurus
from repro.tensor import SparseTensor
from repro.util.errors import KernelError, ShapeError


class CPRecommender:
    """Rank-F CP embedding model over a 3-d ratings tensor."""

    def __init__(
        self,
        rank: int = 16,
        num_iters: int = 8,
        seed: int = 0,
        accelerator: Optional[Tensaurus] = None,
    ) -> None:
        if rank <= 0:
            raise KernelError("rank must be positive")
        self.rank = rank
        self.num_iters = num_iters
        self.seed = seed
        self.accelerator = accelerator or Tensaurus()
        self._run: Optional[AcceleratedRun] = None
        self._rated: Optional[SparseTensor] = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._run is not None

    @property
    def fit_quality(self) -> float:
        self._require_fitted()
        return self._run.decomposition.fit

    @property
    def accelerator_seconds(self) -> float:
        """Total simulated accelerator time spent fitting."""
        self._require_fitted()
        return self._run.accelerator_seconds

    def _require_fitted(self) -> None:
        if self._run is None:
            raise KernelError("fit() the model first")

    # ------------------------------------------------------------------
    def fit(self, ratings: SparseTensor) -> "CPRecommender":
        """Factorize the ratings tensor (users x items x contexts)."""
        if ratings.ndim != 3:
            raise ShapeError("ratings must be a 3-d tensor")
        self._rated = ratings
        self._run = accelerated_cp_als(
            ratings,
            rank=self.rank,
            num_iters=self.num_iters,
            seed=self.seed,
            accelerator=self.accelerator,
        )
        return self

    def predict(self, user: int, item: int, context: int) -> float:
        """Predicted rating for one (user, item, context) triple."""
        self._require_fitted()
        cp = self._run.decomposition
        u, v, w = cp.factors
        return float(np.sum(cp.weights * u[user] * v[item] * w[context]))

    def score_items(self, user: int, context: Optional[int] = None) -> np.ndarray:
        """Scores for every item; context None aggregates over contexts."""
        self._require_fitted()
        cp = self._run.decomposition
        u, v, w = cp.factors
        ctx = w.sum(axis=0) if context is None else w[context]
        return (cp.weights * u[user] * ctx) @ v.T

    def recommend(
        self,
        user: int,
        k: int = 10,
        context: Optional[int] = None,
        exclude_rated: bool = True,
    ) -> List[Tuple[int, float]]:
        """Top-``k`` (item, score) pairs for a user."""
        self._require_fitted()
        scores = self.score_items(user, context)
        if exclude_rated and self._rated is not None:
            coords = self._rated.coords
            rated_items = coords[coords[:, 0] == user][:, 1]
            scores = scores.copy()
            scores[rated_items] = -np.inf
        top = np.argsort(scores)[::-1][:k]
        return [(int(i), float(scores[i])) for i in top if np.isfinite(scores[i])]

    def user_embedding(self, user: int) -> np.ndarray:
        """The user's latent-space coordinates."""
        self._require_fitted()
        return self._run.decomposition.factors[0][user].copy()

    def kernel_reports(self):
        """The per-MTTKRP simulator reports collected during fit()."""
        self._require_fitted()
        return list(self._run.reports)
