"""Small applications for policy unit tests.

The frontier-reading runtimes index their profiles by task position, so a
test that hands ``configure`` a kernel must build the policy for an
application that runs that kernel there.
"""

from repro.simulator import (
    Application,
    CollectiveOp,
    ComputeOp,
    PcontrolOp,
    RecvOp,
    SendOp,
)


def kernel_app(kernel, n_ranks=4, iterations=12):
    """Every rank runs ``kernel`` then an allreduce, once per iteration."""
    programs = [
        [
            op
            for it in range(iterations)
            for op in (ComputeOp(kernel, it), CollectiveOp(iteration=it),
                       PcontrolOp(it))
        ]
        for _ in range(n_ranks)
    ]
    return Application("kernel-app", programs, iterations=iterations)


def reverse_pipeline_app(kernel, n_ranks=3, iterations=8):
    """Each iteration passes a token from the last rank down to rank 0,
    each rank computing (rank r's work scaled by 1 + r / 2) before it
    passes on, so the ranks run their first task of an iteration in
    reverse rank order."""
    programs = []
    for r in range(n_ranks):
        work = kernel.scaled(1.0 + r / 2)
        prog = []
        for it in range(iterations):
            if r < n_ranks - 1:
                prog.append(RecvOp(src=r + 1, iteration=it))
            prog += [ComputeOp(work, it), ComputeOp(work.scaled(0.5), it)]
            if r > 0:
                prog.append(SendOp(dst=r - 1, size_bytes=8, iteration=it))
            prog += [CollectiveOp(iteration=it), PcontrolOp(it)]
        programs.append(prog)
    return Application("reverse-pipeline", programs, iterations=iterations)
