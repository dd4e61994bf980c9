"""Training stages: minimax-entropy baseline and progressive self-training.

Each iteration takes one labeled batch (source plus labeled target,
uniform), one unlabeled batch, and, during self-training, one batch from
the trusted pseudo-labeled set.  The batches of a whole validation window
are drawn and gathered at once, with the bits of one draw per iteration:
each role has its own stream, and the live labels change only at the
validation that ends the window.  The extractor descends
supervised + pseudo + lambda * entropy while the classifier descends
supervised + pseudo - lambda * entropy, both from gradients taken at the
same evaluation point (the entropy term's sign is flipped for the
classifier, gradient-reversal style).

During self-training the live soft labels of the trusted set are blended
with fresh predictions (momentum 0.9) after every validation phase; the
membership of the set never changes, only the labels do.  Each phase's
live hard labels (their argmax) are kept in the loop's state, which is
a stage's report.  The unlabeled target's hidden truth never enters this
module: scoring those labels against it is the caller's job.  Training
stops at the iteration cap or after ``PATIENCE`` validations without a
validation-accuracy improvement, and the best-validation snapshot is the
result of a stage.  ``evaluate`` scores from each ``network.predict_blocks``
block's argmax: the one inference pass, which ``forward`` also runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .coremath import SEED_LIMIT, is_finite_number, is_int, seeded_rng
from .datasets import SSDASplit
from .network import (NetworkParams, _loss_terms, anneal_lr, backward, forward, init_params, predict_blocks, sgd_step,
                      zero_grads)
from .pseudolabel import SelectedSet, reliability


# TrainConfig annotation -> (type test, what the message asks for)
_FIELD_TYPES = {
    "int": (is_int, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}

# Fixed as in MME (Saito et al., 2019), as is network.TEMPERATURE. Stage 1 builds its network with this layout;
# stages 2 and 3 run the layout their checkpoint records. T_VAL counts iterations, PATIENCE validations.
HIDDEN_DIMS, FEATURE_DIM = (64, 64), 32
BATCH_LABELED, BATCH_UNLABELED, BATCH_PSEUDO = 32, 32, 64
BASE_LR, T_VAL, PATIENCE = 0.005, 50, 10


@dataclass
class TrainConfig:
    """Hyperparameters for both training stages.

    ``label_momentum`` = 1.0 disables the refresh entirely (frozen labels,
    the vanilla self-training arm); ``use_hard_labels`` swaps the soft
    targets for one-hot hard pseudo labels.  The schedule is fixed: see ``BASE_LR``, ``T_VAL``, ``PATIENCE``.
    """

    lambda_: float = 0.1
    r_u: float = 0.2
    label_momentum: float = 0.9
    use_hard_labels: bool = False
    t_max: int = 5000
    seed: int = 0

    def validate(self) -> None:
        problems = []
        for f in fields(self):
            is_type, expected = _FIELD_TYPES[f.type]
            if not is_type(getattr(self, f.name)):
                problems.append(f"{f.name} must be {expected}, got {getattr(self, f.name)!r}")
        if problems:
            raise ValueError("invalid train config: " + "; ".join(problems))
        if self.lambda_ < 0:
            problems.append(f"lambda must be nonnegative, got {self.lambda_}")
        if not 0.0 <= self.label_momentum <= 1.0:
            problems.append(f"label_momentum must be in [0, 1], got {self.label_momentum}")
        if not 0.0 < self.r_u <= 1.0:
            problems.append(f"r_u must be in (0, 1], got {self.r_u}")
        if self.t_max < T_VAL:
            problems.append(f"t_max must be at least one validation window ({T_VAL}), got {self.t_max}")
        if not 0 <= self.seed < SEED_LIMIT:
            problems.append(f"seed must be in [0, 2**64), got {self.seed}")
        if problems:
            raise ValueError("invalid train config: " + "; ".join(problems))


@dataclass
class ValidationRecord:
    """One validation phase's row of the report CSV.

    ``reliability`` (the fraction of live hard labels matching the hidden
    truth) is left None here; a caller that holds the truth fills it from
    ``TrainState.live_hard``.
    """

    iteration: int
    val_acc: float
    loss_labeled: float
    loss_pseudo: float | None
    loss_entropy: float
    reliability: float | None = None


# -- loss values (forward only) --


def entropy_loss(params: NetworkParams, x: np.ndarray) -> float:
    """Mean prediction entropy over a batch, from a forward pass alone.

    The value is ``_loss_terms``' entropy term on ``forward``'s predictions, so it has the bits of
    ``backward(x, params, "entropy")[0]``; the logit gradient that comes with it is dropped.
    """
    return _loss_terms(forward(x, params), "entropy", None)[0]


def evaluate(params: NetworkParams, x: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of argmax predictions matching the truth, row for row, by ``reliability`` (evaluation context).

    Only the argmax of each ``predict_blocks`` block is kept, so no ``(n, K)`` prediction matrix is held."""
    hard = np.empty(len(x), dtype=np.intp)
    predict_blocks(x, params, lambda rows, features, predictions: np.argmax(predictions, axis=1, out=hard[rows]))
    return reliability(hard, truth)


def _check_simplex(name: str, labels: np.ndarray) -> np.ndarray:
    """``labels`` as float64, refused unless every row is a distribution."""
    labels = np.asarray(labels, dtype=np.float64)
    # accept only in-range rows, so NaN (false in every comparison) is refused
    if not (np.all(np.abs(labels.sum(axis=1) - 1.0) <= 1e-9) and np.all((labels >= -1e-9) & (labels <= 1.0 + 1e-9))):
        raise ValueError(f"simplex violation in {name} labels")
    return labels


def momentum_update_labels(live: np.ndarray, fresh: np.ndarray, m: float) -> np.ndarray:
    """Blend (n, K) live soft labels toward (n, K) fresh predictions: m * live + (1 - m) * fresh.

    Only ``fresh`` is checked (a diverged network fails here): ``live`` is checked rows or their blends."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"label momentum must be in [0, 1], got {m}")
    return m * np.asarray(live, dtype=np.float64) + (1.0 - m) * _check_simplex("fresh", fresh)


# -- one optimization step --


def minimax_gradients(
    params: NetworkParams,
    lambda_: float,
    labeled: tuple[np.ndarray, np.ndarray],
    pseudo: tuple[np.ndarray, np.ndarray] | None,
    unlabeled: np.ndarray,
    combined: NetworkParams,
    term: NetworkParams,
) -> tuple[dict, NetworkParams]:
    """Combined gradients for the two objectives, one shared evaluation point.

    The extractor entries carry d(L_sup + L_pseudo + lambda H); the
    ``classifier_weights`` entries carry d(L_sup + L_pseudo - lambda H), the
    entropy term negated through that view.  Returns per-term loss values
    and the combined gradient.  ``pseudo`` is None outside self-training.  At
    lambda 0, H drops out of both objectives: its value at this point is
    still reported, from a forward pass alone.

    ``combined`` receives the sum and ``term`` is scratch for the pseudo and
    entropy terms; both are ``NetworkParams`` laid out like ``params``, as
    ``zero_grads`` makes them.
    """
    losses = {"labeled": backward(labeled[0], params, "hard", labeled[1], out=combined)[0], "pseudo": None}
    if pseudo is not None:
        losses["pseudo"] = backward(pseudo[0], params, "soft", pseudo[1], out=term)[0]
        np.add(combined.flat, term.flat, out=combined.flat)
    if lambda_ == 0.0:
        losses["entropy"] = entropy_loss(params, unlabeled)
    else:
        losses["entropy"] = backward(unlabeled, params, "entropy", out=term)[0]
        # gradient reversal: the classifier takes -lambda dH; c + lambda (-t) has the bits of c - lambda t
        np.negative(term.classifier_weights, out=term.classifier_weights)
        np.multiply(term.flat, lambda_, out=term.flat)
        np.add(combined.flat, term.flat, out=combined.flat)
    return losses, combined


def minimax_step(
    params: NetworkParams,
    velocities: NetworkParams,
    lr: float,
    config: TrainConfig,
    labeled: tuple[np.ndarray, np.ndarray],
    pseudo: tuple[np.ndarray, np.ndarray] | None,
    unlabeled: np.ndarray,
    combined: NetworkParams,
    term: NetworkParams,
) -> dict:
    """Apply one SGD step of the minimax objectives; returns the per-term losses.

    Both groups move together, from one gradient evaluation.  ``combined``
    and ``term`` are the workspaces of ``minimax_gradients``.
    """
    losses, combined = minimax_gradients(params, config.lambda_, labeled, pseudo, unlabeled, combined, term)
    sgd_step(params, combined, velocities, lr)
    return losses


# -- the training loop --


@dataclass
class TrainState:
    """Everything one stage's loop owns, from a fresh start to its stop; the stage returns it as its report."""

    stage: str  # "baseline" or "selftrain"
    params: NetworkParams
    velocities: NetworkParams
    t_iter: int
    live_soft: np.ndarray | None
    selected_indices: list[int] | None
    history: list[ValidationRecord] = field(default_factory=list)
    # stage 3 only: each validation phase's live hard labels over the trusted rows, in index order
    live_hard: list[np.ndarray] = field(default_factory=list)
    best_val_acc: float = -1.0
    best_iteration: int = 0
    best_params: NetworkParams | None = None  # taken at the first validation, which always ties -1.0 or beats it
    validations_since_improve: int = 0
    stop_reason: str | None = None
    final_test_acc: float | None = None  # the caller's score of best_params on the unlabeled target


def _batch_rngs(config: TrainConfig, stage: str) -> dict:
    return {role: seeded_rng(config.seed, "batch", stage, role) for role in ("labeled", "unlabeled", "pseudo")}


def init_train_state(
    split: SSDASplit,
    config: TrainConfig,
    stage: str,
    selected: SelectedSet | None = None,
    resume_params: NetworkParams | None = None,
) -> TrainState:
    """Fresh loop state; stage "selftrain" resumes from given params with new velocities, its rows in index order."""
    config.validate()
    if stage not in ("baseline", "selftrain"):
        raise ValueError(f"unknown stage: {stage!r}")
    if stage == "selftrain":
        if selected is None or len(selected) == 0:
            raise ValueError("self-training requires a nonempty selected set")
        if resume_params is None:
            raise ValueError("self-training resumes from a baseline checkpoint")
        params = resume_params.copy()
        rows, selected_indices = selected.annotations, selected.index_set
        if config.use_hard_labels:
            live = np.eye(split.n_classes)[rows.hard_label]
        else:
            live = _check_simplex("live", rows.soft_label)
    else:
        params = init_params(input_dim=split.spec.input_dim, hidden_dims=HIDDEN_DIMS, feature_dim=FEATURE_DIM,
                             n_classes=split.n_classes, rng=seeded_rng(config.seed, "init"))
        live = None
        selected_indices = None
    return TrainState(
        stage=stage,
        params=params,
        velocities=zero_grads(params),
        t_iter=0,
        live_soft=live,
        selected_indices=selected_indices,
    )


def run_train_loop(split: SSDASplit, config: TrainConfig, state: TrainState) -> TrainState:
    """Run a fresh state's loop to patience or t_max; batches come from ``_batch_rngs``."""
    labeled_x, labeled_y = split.labeled_xy()
    unlabeled_x = split.unlabeled_x()
    val_x, val_y = split.validation_xy()
    # the trusted rows, gathered once: membership is frozen
    pseudo_x = unlabeled_x[state.selected_indices] if state.stage == "selftrain" else None
    # minimax_step's workspaces: the summed gradient and one term's gradient
    combined, term = zero_grads(state.params), zero_grads(state.params)

    rngs = _batch_rngs(config, state.stage)
    while state.stop_reason is None and state.t_iter < config.t_max:
        # One validation window's batches, drawn and gathered at once. A (w, b) draw has the
        # values of w draws of b and leaves the stream where they would; the live labels change
        # only at the validation that ends the window, and patience stops a stage only there.
        # A fresh state starts at iteration 0, so every window but one that t_max cuts is full.
        w = min(T_VAL, config.t_max - state.t_iter)
        li = rngs["labeled"].integers(0, len(labeled_x), size=(w, BATCH_LABELED))
        ui = rngs["unlabeled"].integers(0, len(unlabeled_x), size=(w, BATCH_UNLABELED))
        lx, ly, ux = labeled_x[li], labeled_y[li], unlabeled_x[ui]
        if pseudo_x is not None:
            pi = rngs["pseudo"].integers(0, len(pseudo_x), size=(w, BATCH_PSEUDO))
            px, psoft = pseudo_x[pi], state.live_soft[pi]

        labeled_sum = pseudo_sum = entropy_sum = 0.0
        for j in range(w):
            state.t_iter += 1
            lr = anneal_lr(BASE_LR, state.t_iter / config.t_max)
            losses = minimax_step(state.params, state.velocities, lr, config, labeled=(lx[j], ly[j]),
                                  pseudo=None if pseudo_x is None else (px[j], psoft[j]), unlabeled=ux[j],
                                  combined=combined, term=term)
            labeled_sum += losses["labeled"]
            entropy_sum += losses["entropy"]
            if pseudo_x is not None:
                pseudo_sum += losses["pseudo"]

        # only a full window ends at a validation (T_VAL <= t_max), so its means divide by w;
        # a last window that t_max cuts short is never recorded
        if w == T_VAL:
            means = {"labeled": labeled_sum / w, "pseudo": pseudo_sum / w, "entropy": entropy_sum / w}
            _validation_phase(config, state, val_x, val_y, pseudo_x, means)

    if state.stop_reason is None:
        state.stop_reason = "t_max"
    return state


def _validation_phase(
    config: TrainConfig,
    state: TrainState,
    val_x: np.ndarray,
    val_y: np.ndarray,
    pseudo_x: np.ndarray | None,
    means: dict,
) -> None:
    """Check the window's mean losses, validate, refresh the trusted rows' live labels, record the means, check
    patience. A diverged window is reported as such before the refresh can find its labels off the simplex."""
    if not all(map(math.isfinite, means.values())):
        raise FloatingPointError(f"{state.stage} diverged by iteration {state.t_iter}: mean losses {means}")
    val_acc = evaluate(state.params, val_x, val_y)

    # refresh live labels with the updated network, full pass over the set
    if state.stage == "selftrain":
        if config.label_momentum < 1.0:
            fresh = forward(pseudo_x, state.params)
            state.live_soft = momentum_update_labels(state.live_soft, fresh, config.label_momentum)
        state.live_hard.append(np.argmax(state.live_soft, axis=1))

    state.history.append(
        ValidationRecord(
            iteration=state.t_iter,
            val_acc=val_acc,
            loss_labeled=means["labeled"],
            loss_pseudo=means["pseudo"] if state.stage == "selftrain" else None,
            loss_entropy=means["entropy"],
        )
    )

    # snapshot the latest validation that ties the best accuracy (the most-trained
    # model among equals); patience counts only strict improvements
    if val_acc >= state.best_val_acc:
        if val_acc > state.best_val_acc:
            state.validations_since_improve = 0
        else:
            state.validations_since_improve += 1
        state.best_val_acc = val_acc
        state.best_iteration = state.t_iter
        state.best_params = state.params.copy()
    else:
        state.validations_since_improve += 1
    if state.validations_since_improve >= PATIENCE:
        state.stop_reason = "patience"


def train_baseline(split: SSDASplit, config: TrainConfig) -> tuple[NetworkParams, TrainState]:
    """Stage 1: minimax-entropy training without pseudo labels; the best-val snapshot and the loop's state."""
    state = run_train_loop(split, config, init_train_state(split, config, "baseline"))
    return state.best_params, state


def progressive_self_train(
    split: SSDASplit,
    selected: SelectedSet,
    checkpoint_params: NetworkParams,
    config: TrainConfig,
) -> tuple[NetworkParams, TrainState]:
    """Stage 3: resume from the baseline and train on all three loss terms.

    The trusted set's membership is frozen; only its soft labels evolve
    through the momentum refresh at each validation phase.
    """
    state = init_train_state(split, config, "selftrain", selected=selected, resume_params=checkpoint_params)
    frozen = list(state.selected_indices)
    state = run_train_loop(split, config, state)
    assert state.selected_indices == frozen, "selected-set membership must not change"
    return state.best_params, state


# -- report serialization --


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def report_csv_lines(report: TrainState) -> str:
    lines = ["iter,val_acc,L_l,L_pl,H,reliability"]
    for row in report.history:
        values = (row.val_acc, row.loss_labeled, row.loss_pseudo, row.loss_entropy, row.reliability)
        lines.append(",".join([str(row.iteration), *map(_csv_cell, values)]))
    return "\n".join(lines) + "\n"


def report_to_jsonable(report: TrainState) -> dict:
    return {
        "history": [asdict(row) for row in report.history],
        "stop_reason": report.stop_reason,
        "best_iteration": report.best_iteration,
        "best_val_acc": report.best_val_acc,
        "final_test_acc": report.final_test_acc,
    }


def save_report(report: TrainState, json_path: str | Path, csv_path: str | Path) -> None:
    Path(json_path).write_text(json.dumps(report_to_jsonable(report)), encoding="utf-8")
    Path(csv_path).write_text(report_csv_lines(report), encoding="utf-8")
