"""The yardstick: a fixed computation timed before every untraced
operation, so that operation times can be stated in units of the host's
current speed.

On a shared host the speed of one vCPU changes by up to 1.9x for minutes
at a time, and the library's operations slow by 1.4-1.9x. The yardstick
has the library's mix of work (Python float loops, math special
functions, small numpy and scipy.special arrays, string formatting), so
its time rises and falls with theirs. An operation's *normalised* time
is its latency divided by the yardstick time measured around it, times
REF_S: about what the operation would take on a host where the
yardstick takes REF_S. See README.md, "Steadiness".

The yardstick's code never changes with the library, so a change to the
library moves the normalised times as it moves the wall times.
"""

import math
import time

import numpy as np
from scipy import special

# Fixed scale of the normalised times: about the yardstick's time on an
# unloaded 2.1 GHz Xeon vCPU, so that they read roughly as seconds there.
REF_S = 5e-4

_X = np.linspace(0.1, 5.0, 401)


def work():
    s = 0.0
    for i in range(1, 400):
        s += math.lgamma(0.01 * i + 0.5) * math.exp(-0.001 * i)
    for _ in range(20):
        s += float(np.sum(special.gamma(_X) * np.exp(-_X)))
    return s + len(",".join(repr(0.5 * i) for i in range(300)))


def measure():
    """Wall time of one yardstick run, in seconds."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
