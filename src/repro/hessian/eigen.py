"""Top Hessian eigenvalues: power iteration and Lanczos.

Theorem 3 of the paper bounds the admissible weight perturbation by
``v = lambda_max(H)``; these estimators measure ``v`` for trained
models so the theory can be checked directly (and are used by the
Fig. 2 bench alongside the cheaper ``||Hz||`` proxy).
"""

import numpy as np

from ..tensor import VERIFY_DTYPE


def _flatten(vectors):
    return np.concatenate([np.asarray(v).reshape(-1) for v in vectors])


def _unflatten(flat, shapes):
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


def power_iteration(hvp_fn, shapes, iters=20, tol=1e-4, seed=0):
    """Dominant eigenvalue/eigenvector of the Hessian by power iteration.

    Parameters
    ----------
    hvp_fn:
        Callable mapping a list of numpy arrays (parameter-shaped) to
        ``H v`` in the same structure.
    shapes:
        Parameter shapes.
    iters, tol:
        Stop after ``iters`` rounds or when the Rayleigh quotient moves
        by less than ``tol`` (relative).

    Returns ``(eigenvalue, eigenvector_list, history)``; the history of
    Rayleigh quotients is handy for convergence diagnostics.  Note the
    dominant eigenvalue is the largest in *magnitude*.
    """
    rng = np.random.default_rng(seed)
    vec = [rng.standard_normal(shape) for shape in shapes]
    norm = np.linalg.norm(_flatten(vec))
    vec = [v / norm for v in vec]
    eigenvalue = 0.0
    history = []
    for _ in range(iters):
        hv = hvp_fn(vec)
        flat_hv = _flatten(hv)
        new_eig = float(np.dot(_flatten(vec), flat_hv))
        history.append(new_eig)
        norm = np.linalg.norm(flat_hv)
        if norm < 1e-12:
            return 0.0, vec, history
        vec = _unflatten(flat_hv / norm, shapes)
        if abs(new_eig - eigenvalue) <= tol * max(1.0, abs(new_eig)):
            eigenvalue = new_eig
            break
        eigenvalue = new_eig
    return eigenvalue, vec, history


def lanczos_eigenvalues(hvp_fn, shapes, k=3, which="LA", seed=0, maxiter=None):
    """Top-``k`` Hessian eigenvalues via scipy's Lanczos (``eigsh``).

    ``which="LA"`` returns the largest algebraic eigenvalues (the
    quantity in Theorem 3); ``"LM"`` the largest in magnitude.

    Needs scipy (the ``dev`` extra), imported here rather than at module
    level: every worker, server and CLI process imports this module, and
    none of them runs an eigensolve.  Without scipy this raises
    ``ImportError``; :func:`power_iteration` needs numpy only.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    total = int(sum(np.prod(s) if s else 1 for s in shapes))
    rng = np.random.default_rng(seed)

    def matvec(flat):
        # Eigensolves are verification-grade numerics: the Krylov basis
        # stays float64 even when the engine policy is float32 (the HVP
        # itself runs in the model's dtype).
        hv = hvp_fn(_unflatten(np.asarray(flat, dtype=VERIFY_DTYPE), shapes))
        return _flatten(hv).astype(VERIFY_DTYPE, copy=False)

    operator = LinearOperator((total, total), matvec=matvec, dtype=VERIFY_DTYPE)
    v0 = rng.standard_normal(total)
    values = eigsh(
        operator,
        k=min(k, total - 1),
        which=which,
        v0=v0,
        maxiter=maxiter,
        return_eigenvectors=False,
        tol=1e-3,
    )
    return np.sort(values)[::-1]
