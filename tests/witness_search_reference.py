"""The witness search of harness._witness_search as a pairwise loop, one
equal per (s, t) pair in the order |s| + |t|, then s ascending, then t
positive first: the reference that the witness read off a's primitive
root is tested against."""

from periodlines.harness import _powers


def witness_search_reference(backend, a, b, x, y, max_exponent):
    u = backend.mul(backend.inv(backend.normal_form(x)), backend.normal_form(y))
    u_inv = backend.inv(u)
    powers_a = _powers(backend, a, max_exponent)
    powers_b = _powers(backend, b, max_exponent)
    conj_b = {s: backend.mul(backend.mul(u, bs), u_inv) for s, bs in powers_b.items()}
    candidates = sorted(
        ((s, t) for s in powers_b for t in powers_a),
        key=lambda st: (abs(st[0]) + abs(st[1]), st[0], -st[1]),
    )
    for s, t in candidates:
        if backend.equal(conj_b[s], powers_a[t]):
            return {"s": s, "t": t}
    return None
