"""Item-based k-nearest-neighbour collaborative filtering.

A classic memory-based model (Sarwar et al., 2001) included as an additional
baseline for the examples and ablation benches.  The score of an unseen item
is the similarity-weighted average of the user's ratings on the ``k`` most
similar items, with cosine similarity computed on the item-user rating matrix.

Two scale toggles extend the exact model without touching its defaults:

* ``exact=False`` switches to a memory-bounded neighbour search that never
  materializes the dense item-item gram matrix: the similarity graph is
  stored sparse (top-``k`` per item) and scoring runs through sparse-sparse
  products, making both fit memory and per-user scoring cost independent of
  ``|I|²``.  By default neighbours come from a *blocked gram scan* — exact
  restricted sparse products, one ``block × |I|`` stripe at a time — which at
  repository scales is both exact-by-construction (recall 1.0) and faster
  than the dense path.  Setting ``n_projections`` opts into a true sublinear
  candidate search (Johnson–Lindenstrauss random-projection sketch + exact
  rescoring of candidate pairs), which pays off when the per-user activity
  distribution makes the full gram product (``Σ_u nnz_u²``) intractable; its
  recall depends on the data having clustered co-rating structure and is
  gated in ``tests/test_scale.py``.
* ``dtype="float32"`` computes similarities and scores in single precision,
  halving the resident footprint; top-N equivalence under a documented
  tolerance is pinned by ``tests/test_scale.py``.

With the defaults (``exact=True``, ``dtype="float64"``) every operation is
bit-identical to the original implementation — the golden fixtures pin this.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender

_SCORE_DTYPES = {"float32": np.float32, "float64": np.float64}

# Item pairs rescored exactly per chunk on the sketch path; bounds the peak
# memory of the gathered sparse rows to a few hundred MB at 10M ratings.
_PAIR_CHUNK = 262_144

# Item rows per block of the gram scan / sketched candidate search; bounds
# the densified workspace to ``block × n_items`` entries.
_ESTIMATE_BLOCK = 512


class ItemKNN(Recommender):
    """Item-item cosine KNN over the train rating matrix.

    Parameters
    ----------
    k:
        Number of neighbours contributing to each prediction.
    shrinkage:
        Additive shrinkage on the similarity denominator; damps similarities
        supported by few co-ratings.
    exact:
        ``True`` (default) computes the full dense gram matrix — the
        golden-pinned exact path.  ``False`` builds a sparse top-``k``
        neighbour graph with memory bounded by ``block × |I|`` instead of
        ``|I|²``, via the blocked gram scan (default) or the sketch search
        (``n_projections`` set) described in the module docstring.
    dtype:
        Scoring precision, ``"float64"`` (default, golden-pinned) or
        ``"float32"``.
    n_projections:
        ``None`` (default) keeps the blocked gram scan.  An integer enables
        the Johnson–Lindenstrauss candidate sketch of that dimensionality;
        the relative error of sketched similarities shrinks as
        ``1/sqrt(n_projections)``, so larger values separate items better at
        higher fit cost.  Ignored when ``exact``.
    n_candidates:
        Neighbour candidates kept per item after the sketched ranking, before
        exact rescoring; higher values trade fit time for recall.  Only used
        with ``n_projections``.
    seed:
        Seed for the random projection planes.  Only used with
        ``n_projections``.
    """

    supports_delta_refit = True

    def __init__(
        self,
        k: int = 50,
        *,
        shrinkage: float = 10.0,
        exact: bool = True,
        dtype: str = "float64",
        n_projections: int | None = None,
        n_candidates: int = 400,
        seed: object = 0,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if shrinkage < 0:
            raise ConfigurationError(f"shrinkage must be non-negative, got {shrinkage}")
        if dtype not in _SCORE_DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {sorted(_SCORE_DTYPES)}, got {dtype!r}"
            )
        if n_projections is not None and n_projections < 1:
            raise ConfigurationError(
                f"n_projections must be >= 1 or None, got {n_projections}"
            )
        if n_candidates < 1:
            raise ConfigurationError(f"n_candidates must be >= 1, got {n_candidates}")
        self.k = int(k)
        self.shrinkage = float(shrinkage)
        self.exact = bool(exact)
        self.dtype = str(dtype)
        self.n_projections = None if n_projections is None else int(n_projections)
        self.n_candidates = int(n_candidates)
        self.seed = 0 if seed is None else seed
        # Delta refits are stated (and tested) as bit-identity with a fresh
        # exact float64 fit; the other modes refit from scratch.
        self.supports_delta_refit = self.exact and self.dtype == "float64"
        self.similarity_: np.ndarray | sparse.csr_matrix | None = None
        self._abs_similarity: np.ndarray | sparse.csr_matrix | None = None

    @property
    def _np_dtype(self) -> type:
        """The numpy scalar type behind the ``dtype`` toggle."""
        return _SCORE_DTYPES[self.dtype]

    def _finalize(self, gram: np.ndarray, n_items: int) -> None:
        """Normalize + sparsify a gram matrix into the similarity state."""
        norms = np.sqrt(np.diag(gram))
        denom = np.outer(norms, norms) + self.shrinkage
        denom[denom == 0.0] = 1.0
        similarity = gram / denom
        np.fill_diagonal(similarity, 0.0)

        if self.k < n_items - 1:
            # Keep only the top-k neighbours per item (sparsify in place).
            for item in range(n_items):
                row = similarity[item]
                if np.count_nonzero(row) > self.k:
                    threshold = np.partition(row, -self.k)[-self.k]
                    row[row < threshold] = 0.0
        self.similarity_ = similarity
        # Cached for the batched score path's weight-mass product.
        self._abs_similarity = np.abs(similarity)

    def _persisted_state(self) -> dict[str, object]:
        """The attributes persistence stores (see ``component_state``).

        ``_abs_similarity`` is derived and rebuilt on restore.  The exact
        path's dense similarity is top-``k`` pruned, hence mostly zeros, so
        it is stored as its CSR triple; it holds no signed zeros (the gram
        product accumulates from ``+0.0`` and pruning writes ``+0.0``), so
        densifying restores it byte-equal.
        """
        state = dict(vars(self))
        state.pop("_abs_similarity", None)
        if isinstance(self.similarity_, np.ndarray):
            state["similarity_"] = sparse.csr_matrix(self.similarity_)
        return state

    def _restore_persisted_state(self) -> None:
        """Rebuild what :meth:`_persisted_state` left out."""
        # Pipelines saved before the gram cache was dropped still carry it.
        vars(self).pop("_gram", None)
        if self.exact and sparse.issparse(self.similarity_):
            self.similarity_ = self.similarity_.toarray()
        self._abs_similarity = None if self.similarity_ is None else abs(self.similarity_)

    def fit(self, train: RatingDataset) -> "ItemKNN":
        """Compute the item-item cosine similarity matrix (dense or sparse)."""
        if not self.exact:
            self._fit_ann(train)
            self._mark_fitted(train)
            return self
        matrix = train.to_csc().astype(self._np_dtype)
        # Cosine similarity between item columns.
        gram = (matrix.T @ matrix).toarray()
        self._finalize(gram, train.n_items)
        self._mark_fitted(train)
        return self

    def _fit_ann(self, train: RatingDataset) -> None:
        """Memory-bounded neighbour search: blocked gram scan or JL sketch.

        Both modes share an exact diagonal pass (doubly-restricted sparse
        products, which scipy accumulates in the same order as the full gram
        — the norms are bit-identical to the exact path's) and store the
        resulting top-``k`` graph sparse.

        *Scan* (default): each ``_ESTIMATE_BLOCK``-row stripe of the gram is
        computed with a restricted sparse product, normalized, and pruned to
        per-item top-``k`` immediately — the workspace never exceeds
        ``block × |I|``, and the kept entries are bit-identical to the dense
        path's because restricted products match the full product per entry.

        *Sketch* (``n_projections`` set): item rating columns are projected
        into an ``n_projections``-dimensional Johnson–Lindenstrauss subspace,
        where inner products — hence shrunk cosine similarities — survive up
        to relative error ``O(1/sqrt(n_projections))``.  Sketched similarities
        are ranked blockwise, each item keeps ``n_candidates`` candidates, and
        only those pairs get exact rating-column dot products (gathered sparse
        rows, chunked so peak memory stays bounded).  This search is sublinear
        in ``Σ_u nnz_u²`` — the regime where it beats the scan is very active
        users — but its recall depends on clustered co-rating structure.
        """
        n_items = train.n_items
        if n_items < 2:
            raise ConfigurationError("the ANN path needs at least 2 items")
        matrix = train.to_csc().astype(np.float64)
        item_rows = matrix.T.tocsr()  # items x users; row i is item i's ratings

        # Exact gram diagonal from doubly-restricted products; bit-identical
        # to ``np.diag((Mᵀ M).toarray())`` at a fraction of its cost.
        diagonal = np.empty(n_items, dtype=np.float64)
        for start in range(0, n_items, _ESTIMATE_BLOCK):
            stop = min(start + _ESTIMATE_BLOCK, n_items)
            product = (item_rows[start:stop] @ matrix[:, start:stop]).toarray()
            diagonal[start:stop] = np.asarray(product).diagonal()
        norms = np.sqrt(diagonal)

        if self.n_projections is None:
            kept = self._scan_candidates(item_rows, matrix, norms, n_items)
        else:
            kept = self._sketch_candidates(item_rows, norms, n_items)
        kept_rows, kept_cols, kept_values = kept
        similarity = sparse.csr_matrix(
            (kept_values.astype(self._np_dtype), (kept_rows, kept_cols)),
            shape=(n_items, n_items),
        )
        similarity.eliminate_zeros()
        self.similarity_ = similarity
        self._abs_similarity = abs(similarity)

    def _scan_candidates(
        self,
        item_rows: sparse.csr_matrix,
        matrix: sparse.csc_matrix,
        norms: np.ndarray,
        n_items: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocked exact gram stripes, pruned to top-``k`` as they stream."""
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for start in range(0, n_items, _ESTIMATE_BLOCK):
            stop = min(start + _ESTIMATE_BLOCK, n_items)
            block = np.asarray((item_rows[start:stop] @ matrix).toarray())
            denom = np.outer(norms[start:stop], norms) + self.shrinkage
            denom[denom == 0.0] = 1.0
            block /= denom
            local = np.arange(stop - start)
            block[local, local + start] = 0.0
            if self.k < n_items - 1:
                # Same rule as _finalize: rows with more than k nonzeros drop
                # everything below their kth-largest value (ties survive).
                threshold = np.partition(block, -self.k, axis=1)[:, -self.k]
                prune = block < threshold[:, None]
                prune[np.count_nonzero(block, axis=1) <= self.k] = False
                block[prune] = 0.0
            local_rows, local_cols = np.nonzero(block)
            row_parts.append(local_rows.astype(np.int64) + start)
            col_parts.append(local_cols.astype(np.int64))
            value_parts.append(block[local_rows, local_cols])
        return (
            np.concatenate(row_parts),
            np.concatenate(col_parts),
            np.concatenate(value_parts),
        )

    def _sketch_candidates(
        self,
        item_rows: sparse.csr_matrix,
        norms: np.ndarray,
        n_items: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """JL-sketched candidate ranking followed by exact pair rescoring."""
        rng = np.random.default_rng(self.seed)
        planes = rng.standard_normal((item_rows.shape[1], self.n_projections)).astype(
            np.float32
        )
        sketch = np.asarray(item_rows.astype(np.float32) @ planes)
        sketch /= np.float32(np.sqrt(self.n_projections))
        sketch_norms = norms.astype(np.float32)
        shrinkage32 = np.float32(self.shrinkage)

        n_candidates = min(self.n_candidates, n_items - 1)
        row_blocks: list[np.ndarray] = []
        col_blocks: list[np.ndarray] = []
        for start in range(0, n_items, _ESTIMATE_BLOCK):
            stop = min(start + _ESTIMATE_BLOCK, n_items)
            estimate = sketch[start:stop] @ sketch.T
            denominator = np.outer(sketch_norms[start:stop], sketch_norms) + shrinkage32
            denominator[denominator == 0.0] = np.float32(1.0)
            estimate /= denominator
            # An item is never its own neighbour.
            local = np.arange(stop - start)
            estimate[local, local + start] = -np.inf
            candidates = np.argpartition(estimate, -n_candidates, axis=1)[
                :, -n_candidates:
            ]
            row_blocks.append(
                np.repeat(np.arange(start, stop, dtype=np.int64), n_candidates)
            )
            col_blocks.append(candidates.ravel().astype(np.int64))
        rows = np.concatenate(row_blocks)
        cols = np.concatenate(col_blocks)

        dots = np.empty(rows.size, dtype=np.float64)
        for start in range(0, rows.size, _PAIR_CHUNK):
            stop = min(start + _PAIR_CHUNK, rows.size)
            left = item_rows[rows[start:stop]]
            right = item_rows[cols[start:stop]]
            dots[start:stop] = np.asarray(left.multiply(right).sum(axis=1)).ravel()
        denom = norms[rows] * norms[cols] + self.shrinkage
        denom[denom == 0.0] = 1.0
        values = dots / denom

        # Per-item top-k over the candidate pool (rows are grouped and
        # contiguous: exactly n_candidates entries per item, in item order).
        values2d = values.reshape(n_items, n_candidates)
        cols2d = cols.reshape(n_items, n_candidates)
        if self.k < n_candidates:
            pick = np.argpartition(values2d, -self.k, axis=1)[:, -self.k :]
            anchor = np.arange(n_items)[:, None]
            kept_rows = np.repeat(np.arange(n_items, dtype=np.int64), self.k)
            kept_cols = cols2d[anchor, pick].ravel()
            kept_values = values2d[anchor, pick].ravel()
        else:
            kept_rows, kept_cols, kept_values = rows, cols, values
        return kept_rows, kept_cols, kept_values

    def delta_refit(self, train: RatingDataset) -> "ItemKNN":
        """Absorb appended interactions by refitting the exact gram.

        Any appended rating moves its item's norm, and with it every
        similarity denominator that norm appears in, so no similarity row
        survives a delta that touches an item.  The refit therefore reruns
        :meth:`fit`'s gram product and normalization — bit-identical to a
        fresh fit by construction (asserted in ``tests/test_incremental.py``).
        A pure cold-start delta (new users without ratings) moves no
        rating-matrix column, so the fitted similarity is kept and only the
        train reference moves.  Only the exact float64 mode supports deltas:
        the bit-identity contract is stated in float64 terms.
        """
        self._check_fitted()
        if not self.supports_delta_refit:
            raise ConfigurationError(
                "delta refits require the exact float64 scoring path "
                f"(exact={self.exact}, dtype={self.dtype!r}); refit from "
                "scratch instead"
            )
        assert self.similarity_ is not None
        _, delta_items, _ = self._delta_interactions(train)
        self.delta_changed_state = (
            bool(delta_items.size) or train.n_items != self.similarity_.shape[0]
        )
        if not self.delta_changed_state:
            self._mark_fitted(train)
            return self
        return self.fit(train)

    def predict_scores(self, user: int, items: np.ndarray) -> np.ndarray:
        """Similarity-weighted average of the user's ratings."""
        self._check_fitted()
        assert self.similarity_ is not None
        items = np.asarray(items, dtype=np.int64)
        rated_items, rated_values = self.train_data.user_ratings(user)
        if rated_items.size == 0:
            return np.zeros(items.size, dtype=np.float64)
        if sparse.issparse(self.similarity_):
            sims = np.asarray(
                self.similarity_[items][:, rated_items].toarray(), dtype=np.float64
            )
        else:
            sims = self.similarity_[np.ix_(items, rated_items)]
        weights = np.abs(sims).sum(axis=1)
        weights[weights == 0.0] = 1.0
        return np.asarray((sims @ rated_values) / weights, dtype=np.float64)

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Neighbour-weighted score rows via two sparse products.

        For a block of users with rating rows ``R`` (sparse) the numerator is
        ``R @ S^T`` and the per-item weight is ``|R|_0 @ |S|^T`` (indicator
        rows against absolute similarities), which reproduces the per-user
        formula for every user of the block at once.  With a sparse
        similarity graph (``exact=False``) both products are sparse-sparse —
        cost ``O(nnz_u · k)`` per user instead of ``O(nnz_u · |I|)`` — and
        only the block's score rows are densified, never ``|U| x |I|``.
        """
        self._check_fitted()
        assert self.similarity_ is not None and self._abs_similarity is not None
        users = self._resolve_users(users)
        block = self.train_data.to_csr()[users]
        if sparse.issparse(self.similarity_):
            block = block.astype(self._np_dtype)
            numerator = np.asarray(
                (block @ self.similarity_.T).toarray(), dtype=np.float64
            )
            indicator = block.copy()
            indicator.data = np.ones_like(indicator.data)
            weights = np.asarray(
                (indicator @ self._abs_similarity.T).toarray(), dtype=np.float64
            )
            weights[weights == 0.0] = 1.0
            return numerator / weights
        if self.similarity_.dtype == np.float32:
            block = block.astype(np.float32)
        numerator = block @ self.similarity_.T
        indicator = block.copy()
        indicator.data = np.ones_like(indicator.data)
        weights = indicator @ self._abs_similarity.T
        weights[weights == 0.0] = 1.0
        return np.asarray(numerator / weights, dtype=np.float64)
