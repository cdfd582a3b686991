"""Independent oracles: these implement the expected quantities by a route
separate from the library code they check (finite differences, closed-form
densities, a scalar optimizer re-implementation, Riccati recursion,
composites of elementary ops for autodiff's one-node ops, a backward that
keeps its graph, the model loss unrolled one time step at a time, and PPO
with one backward of the joint loss on one thread)."""

import math

import numpy as np

from kinoplan import autodiff as ad
from kinoplan.autodiff import Tensor
from kinoplan.errors import DataError, DimensionError, TrainingError
from kinoplan.model import LOSS_TERMS
from kinoplan.nn import NET_DTYPE, clip_grad_norm
from kinoplan.state import IDX_OFFSET, IDX_PZ, x_features


def numeric_gradient(f, param_data: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. an array mutated in place."""
    grad = np.zeros_like(param_data)
    it = np.nditer(param_data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = param_data[idx]
        param_data[idx] = old + eps
        fp = f()
        param_data[idx] = old - eps
        fm = f()
        param_data[idx] = old
        grad[idx] = (fp - fm) / (2 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gaussian_log_density(x, mean, std) -> float:
    """Direct sum of univariate normal log densities."""
    x, mean, std = (np.asarray(v, dtype=np.float64) for v in (x, mean, std))
    return float(np.sum(-0.5 * ((x - mean) / std) ** 2 - np.log(std)
                        - 0.5 * math.log(2 * math.pi)))


def gaussian_kl_closed_form(mu_p, std_p, mu_q, std_q) -> float:
    mu_p, std_p, mu_q, std_q = (np.asarray(v, dtype=np.float64)
                                for v in (mu_p, std_p, mu_q, std_q))
    return float(np.sum(np.log(std_q / std_p)
                        + (std_p ** 2 + (mu_p - mu_q) ** 2) / (2 * std_q ** 2) - 0.5))


class ScalarAdam:
    """Reference Adam on a single scalar, written independently."""

    def __init__(self, w: float, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
        self.w = w
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, grad: float) -> float:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1 ** self.t)
        vhat = self.v / (1 - self.b2 ** self.t)
        self.w -= self.lr * mhat / (math.sqrt(vhat) + self.eps)
        return self.w


def discounted_riccati(A, B, Q, R, gamma: float, iters: int = 10_000,
                       tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the discounted discrete Riccati recursion.

    P = Q + gamma A'PA - gamma^2 A'PB (R + gamma B'PB)^-1 B'PA, with the
    optimal feedback K so that u* = -K x. Cost-to-go is x'Px.
    """
    A, B, Q, R = (np.asarray(v, dtype=np.float64) for v in (A, B, Q, R))
    P = Q.copy()
    for _ in range(iters):
        BtPB = R + gamma * B.T @ P @ B
        K = gamma * np.linalg.solve(BtPB, B.T @ P @ A)
        P_new = Q + gamma * A.T @ P @ A - gamma * A.T @ P @ B @ K
        if np.max(np.abs(P_new - P)) < tol:
            P = P_new
            break
        P = P_new
    BtPB = R + gamma * B.T @ P @ B
    K = gamma * np.linalg.solve(BtPB, B.T @ P @ A)
    return P, K


def lqr_rollout_cost(A, B, Q, R, x0, policy, steps: int, gamma: float,
                     terminal_P: np.ndarray) -> float:
    """Discounted quadratic cost of rolling a policy, with the Riccati
    cost-to-go closing the tail."""
    x = np.asarray(x0, dtype=np.float64).copy()
    cost = 0.0
    gpow = 1.0
    for _ in range(steps):
        u = policy(x)
        cost += gpow * float(x @ Q @ x + u @ R @ u)
        x = A @ x + B @ u
        gpow *= gamma
    return cost + gpow * float(x @ terminal_P @ x)


class ListReplay:
    """Reference sequence replay over a list of per-episode dicts, each record
    storing its neighbouring states (`x_prev`, `x_next`, `floor_next`) as
    its own fields. Eviction appends first, then drops the oldest episodes
    while the total is over capacity."""

    FIELDS = ("obs", "action", "reward", "value_target", "x", "x_next",
              "x_prev", "floor_now", "floor_next")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.episodes: list[dict] = []
        self.total = 0

    def add_episode(self, records: list[dict], min_len: int = 2):
        if len(records) < min_len:
            return
        episode = {f: np.asarray([rec[f] for rec in records]) for f in self.FIELDS}
        self.episodes.append(episode)
        self.total += len(records)
        while self.total > self.capacity and len(self.episodes) > 1:
            evicted = self.episodes.pop(0)
            self.total -= evicted["reward"].shape[0]

    def sample_sequences(self, batch: int, seq_len: int, rng: np.random.Generator):
        eligible = [ep for ep in self.episodes if ep["reward"].shape[0] >= seq_len]
        if not eligible:
            return None
        weights = np.array([ep["reward"].shape[0] - seq_len + 1 for ep in eligible],
                           dtype=np.float64)
        weights /= weights.sum()
        out = {f: [] for f in self.FIELDS}
        for _ in range(batch):
            ep = eligible[int(rng.choice(len(eligible), p=weights))]
            start = int(rng.integers(0, ep["reward"].shape[0] - seq_len + 1))
            for f in self.FIELDS:
                if f == "x_prev":
                    out[f].append(ep["x_prev"][start])
                else:
                    out[f].append(ep[f][start:start + seq_len])
        return {f: np.asarray(v) for f, v in out.items()}


def episode_records(episode: dict) -> list[dict]:
    """The per-record dicts of an episode given as arrays (a row per record,
    plus `terminal_x`/`terminal_floor`), neighbouring states filled in."""
    n = len(episode["reward"])
    x_after = np.concatenate([episode["x"][1:], [episode["terminal_x"]]])
    floor_after = np.append(episode["floor_now"][1:], episode["terminal_floor"])
    return [{"obs": episode["obs"][k], "action": episode["action"][k],
             "reward": episode["reward"][k], "value_target": episode["value_target"][k],
             "x": episode["x"][k], "x_prev": episode["x"][max(k - 1, 0)],
             "x_next": x_after[k], "floor_now": episode["floor_now"][k],
             "floor_next": floor_after[k]} for k in range(n)]


# -- elementary ops the library does without, for the op chains below ----------------

def matmul(a, b) -> Tensor:
    """a @ b for 1-D/2-D operands of one dtype."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if not ad.on_tape(a, b):
        if a.data.dtype != b.data.dtype:
            raise DimensionError(f"matmul operands of different dtypes: "
                                 f"{a.data.dtype} @ {b.data.dtype}")
        return Tensor(a.data @ b.data)
    need_a, need_b = ad.on_tape(a), ad.on_tape(b)

    def backward(g):
        ad_, bd = a.data, b.data
        ga = gb = None                          # none for an operand off the tape
        if need_a:
            ga = g @ bd.T if bd.ndim == 2 else (np.outer(g, bd) if ad_.ndim == 2 else g * bd)
        if need_b:
            gb = ad_.T @ g if ad_.ndim == 2 else (np.outer(ad_, g) if bd.ndim == 2 else g * ad_)
        return ga, gb

    return ad.node(a.data @ b.data, (a, b), backward)


def _unary(a, data, backward):
    """An elementwise op of `a` with value `data` and gradient backward(g)."""
    if not ad.on_tape(a):
        return Tensor(data)
    return ad.node(data, (a,), lambda g: (backward(g),))


def tanh(a) -> Tensor:
    data = np.tanh(ad.as_tensor(a).data)
    return _unary(a, data, lambda g: g * (1.0 - data * data))


def sigmoid(a) -> Tensor:
    data = 0.5 * ad.as_tensor(a).data           # 0.5 * (tanh(0.5 * a) + 1), in one buffer
    np.tanh(data, out=data)
    data += 1.0
    data *= 0.5
    return _unary(a, data, lambda g: g * data * (1.0 - data))


def relu(a) -> Tensor:
    a = ad.as_tensor(a)
    return _unary(a, np.maximum(a.data, 0.0), lambda g: g * (a.data > 0.0))


def composite_gru_cell(x, h, w_x, w_h, b):
    """One GRU step, gate order (r, u, c), as a chain of elementary
    autodiff ops: the reference for `autodiff.gru_cell`."""
    n = ad.as_tensor(h).data.shape[-1]
    gx = ad.dense(x, w_x, b)
    gh = matmul(h, w_h)
    r = sigmoid(gx[..., 0:n] + gh[..., 0:n])
    u = sigmoid(gx[..., n:2 * n] + gh[..., n:2 * n])
    c = tanh(gx[..., 2 * n:] + r * gh[..., 2 * n:])
    return (1.0 - u) * h + u * c


def foot_height(x: np.ndarray, body) -> np.ndarray:
    """Height of the support foot: p_z less the leg's length."""
    return np.asarray(x)[..., IDX_PZ] - (body.leg_length + np.asarray(x)[..., IDX_OFFSET])


def _divide(a, c: float) -> Tensor:
    """a / c for a constant c as one elementary op, whose gradient is g / c
    (autodiff has no division)."""
    return ad.node(a.data / c, (a,), lambda g: (g / c,))


def composite_integrate(body, dt, x_prev, wrench, floor_at=None):
    """`advance_state` without friction as a chain of elementary autodiff ops
    on (n,)-columns, in its operation order: the reference for
    `InternalModel.integrate`. Call it with the wrench on the tape."""
    wrench = ad.astype(wrench, np.float64)
    g = body.gravity
    x_prev = np.atleast_2d(np.asarray(x_prev, dtype=np.float64))
    n = x_prev.shape[0]
    px, pz, th, vx, vz, om, d = x_prev.T

    if floor_at is None:
        contact = np.zeros(n, dtype=bool)
    else:
        contact = foot_height(x_prev, body) <= floor_at(px) + body.contact_tol

    fx = wrench[:, 0]
    fz = wrench[:, 1]
    tau = wrench[:, 2]
    drate = wrench[:, 3]

    d2 = ad.clip(Tensor(d) + dt * drate, body.offset_min, body.offset_max)
    om2 = Tensor(om) + _divide(dt * tau, body.inertia)
    th2 = Tensor(th) + dt * om2
    vx2 = Tensor(vx) + _divide(dt * fx, body.mass)
    vz_air = Tensor(vz) + dt * (_divide(fz, body.mass) - g)
    px2 = Tensor(px) + dt * vx2
    vz_contact = relu(Tensor(vz)) + dt * relu(_divide(fz, body.mass) - g)
    vz2 = ad.where(contact, vz_contact, vz_air)
    pz_air = Tensor(pz) + dt * vz2

    if floor_at is None:
        pz2 = pz_air
    else:
        pz_planted = Tensor(floor_at(px2.data) + body.leg_length) + d2
        planted = contact & (vz2.data <= 0.0)
        pz2 = ad.where(planted, pz_planted, pz_air)

    cols = [px2, pz2, th2, vx2, vz2, om2, d2]
    return ad.concat([ad.reshape(c, (n, 1)) for c in cols], axis=-1)


def looped_model_loss(model, batch: dict, rng: np.random.Generator):
    """`InternalModel.model_loss` with every term computed inside the time
    loop, one B-row step at a time: the reference for the batched loss. It
    makes the same latent draws from `rng` in the same order."""
    for name in ListReplay.FIELDS:
        if name not in batch:
            raise DataError(f"batch missing field '{name}'")
    dtype = model.dtype
    obs = np.asarray(batch["obs"], dtype=dtype)
    action = np.asarray(batch["action"], dtype=dtype)
    reward = np.asarray(batch["reward"], dtype=dtype)
    value_t = np.asarray(batch["value_target"], dtype=dtype)
    x_sim = np.asarray(batch["x"], dtype=np.float64)
    x_next_sim = np.asarray(batch["x_next"], dtype=np.float64)
    x_prev0 = np.asarray(batch["x_prev"], dtype=np.float64)
    floor_now = np.asarray(batch["floor_now"], dtype=np.float64)
    floor_next = np.asarray(batch["floor_next"], dtype=np.float64)
    bsz, L = reward.shape

    h = Tensor(np.zeros((bsz, model.cfg.d_h), dtype=dtype))
    totals = {k: None for k in LOSS_TERMS}

    def accumulate(key, value):
        totals[key] = value if totals[key] is None else totals[key] + value

    obs_targets = model.obs_target(obs)
    for t in range(L):
        e_t = model.embed(obs[:, t])
        post = model.post_z(ad.concat([e_t, h], axis=-1))
        prior = model.prior_z(h)
        z_t = post.sample(noise=rng.standard_normal(post.mean.data.shape))
        a_t = action[:, t]
        y_t = ad.concat([Tensor(x_features(x_sim[:, t]).astype(dtype)), h, z_t], axis=-1)

        accumulate("reward_nll", -ad.mean(
            model.reward_head(ad.concat([y_t, Tensor(a_t)], axis=-1))
            .log_prob(reward[:, t, None])))
        accumulate("value_nll", -ad.mean(
            model.value_head(y_t).log_prob(value_t[:, t, None])))
        accumulate("latent_kl", ad.mean(post.kl(prior)))
        accumulate("action_cloning", -ad.mean(model.policy_head(y_t).log_prob(a_t)))
        accumulate("reconstruction", -ad.mean(
            model.decoder(y_t).log_prob(obs_targets[:, t])))

        x_prev_t = x_prev0 if t == 0 else x_sim[:, t - 1]
        x_hat = model.posterior_x(e_t, h, x_prev_t)
        com = ad.mean(ad.sum_(ad.square(x_hat - x_sim[:, t]), axis=-1))

        h_next = model.gru(
            Tensor(np.concatenate([x_features(x_sim[:, t]), z_t.data, a_t], axis=-1,
                                  dtype=dtype)),
            h)
        # the prior state prediction conditions on the post-action memory
        floors = iter((floor_now[:, t], floor_next[:, t]))
        x_hat_next = model.integrate(x_sim[:, t], model.wrench(h_next),
                                     lambda px: next(floors))
        com = com + ad.mean(ad.sum_(ad.square(x_hat_next - x_next_sim[:, t]), axis=-1))
        accumulate("com", com)
        h = h_next

    breakdown = {}
    loss = None
    for key in LOSS_TERMS:
        term = ad.astype(totals[key], np.float64)
        value = float(term.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite model loss term '{key}'")
        breakdown[key] = value
        weighted = term * model.cfg.beta_kl if key == "latent_kl" else term
        loss = weighted if loss is None else loss + weighted
    breakdown["total"] = float(loss.data)
    return loss, breakdown


def graph_keeping_backward(root: Tensor):
    """`root.backward()` for a scalar root as it was before backward
    released its graph: every node keeps its parents and closure."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is not None:
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


def joint_loss_ppo_update(batch, actor, critic, optimizer, rng, epochs=4, minibatches=4,
                          clip_ratio=0.2, entropy_coef=0.005, grad_clip=1.0) -> dict:
    """`training.ppo_update` as one backward of the joint loss
    -policy_term - entropy_coef * entropy + value_loss per minibatch, on one
    thread, then each network's clip and one Adam step: the reference for the
    actor and critic passes run apart. Its stats hold the same keys."""
    T, B = batch.rewards.shape
    n = T * B
    priv = batch.priv.reshape(n, -1)
    obs = priv[:, :actor.obs_dim]
    h = batch.h.reshape(n, -1)
    roll = batch.rollout.reshape(n, -1)
    actions = batch.actions.reshape(n, -1).astype(NET_DTYPE, copy=False)
    logp_old = batch.log_probs.reshape(n).astype(NET_DTYPE, copy=False)
    adv = batch.advantages.reshape(n)
    adv = ((adv - adv.mean()) / (adv.std() + 1e-8)).astype(NET_DTYPE)
    returns = batch.returns.reshape(n).astype(NET_DTYPE)
    stats = dict.fromkeys(("policy_loss", "value_loss", "entropy", "clip_fraction",
                           "grad_norm_actor", "grad_norm_critic"), 0.0)
    stats["skipped"] = updates = 0
    for _ in range(epochs):
        for mb in np.array_split(rng.permutation(n), minibatches):
            dist = actor(obs[mb], h[mb], roll[mb])
            ratio = ad.exp(dist.log_prob(actions[mb]) - logp_old[mb])
            finite = np.isfinite(ratio.data)
            surr = ad.minimum(ratio * adv[mb],
                              ad.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv[mb])
            surr = ad.where(finite, surr, np.zeros_like(adv[mb]))
            policy_term = ad.sum_(surr) * (1.0 / max(int(finite.sum()), 1))
            entropy = ad.mean(dist.entropy())
            value_loss = ad.mean(ad.square(critic(priv[mb], h[mb], roll[mb]) - returns[mb]))
            loss = -policy_term - entropy_coef * entropy + value_loss
            if not np.isfinite(float(loss.data)):
                raise TrainingError("non-finite PPO loss")
            optimizer.zero_grad()
            loss.backward()
            stats["grad_norm_actor"] += clip_grad_norm(actor.named_parameters(), grad_clip)
            stats["grad_norm_critic"] += clip_grad_norm(critic.named_parameters(), grad_clip)
            optimizer.step()
            stats["policy_loss"] += float(-policy_term.data)
            stats["value_loss"] += float(value_loss.data)
            stats["entropy"] += float(entropy.data)
            stats["clip_fraction"] += float(np.mean(np.abs(ratio.data - 1.0) > clip_ratio))
            stats["skipped"] += int((~finite).sum())
            updates += 1
    for key in stats.keys() - {"skipped"}:
        stats[key] /= max(updates, 1)
    return stats
