"""Compiled fluid-ledger kernels (optional, bit-identical).

The progressive-filling loop in :mod:`repro.netsim.fluid` is inherently
sequential — each round fixes one bottleneck link and updates the
residual capacity and load of the links its flows cross — so it cannot
be vectorized across rounds.  At fleet scale (128 machines) a solve runs
hundreds of rounds and the per-round numpy-call overhead dominates the
whole simulation.  At small scale the opposite holds: a solve is a few
dozen rounds, and the numpy calls around it (set-up copies, the byte
advance, the rate scatter, the next-completion scan, the finish scan)
cost several times the loop itself.  This module compiles the loop *and*
that per-instant arithmetic to native code at first use (plain
``cc -O2 -ffp-contract=off``, no third-party build system) and binds it
through :mod:`ctypes`.  A :class:`Ledger` holds one C struct of array
addresses per network, bound whenever an array is reallocated, so a
recompute is a few foreign calls of two to four scalars each.

Bit-identity with the numpy path is a hard requirement (the golden
tests and ``baseline --tolerance 0`` pin simulated times exactly), so
the C code reproduces the float semantics operation for operation.

The fill:

* shares are ``residual / load`` where ``load > 0`` else ``+inf`` — the
  same single IEEE-754 division numpy performs;
* the bottleneck is the *first* index achieving the minimal share
  (numpy ``argmin`` tie-break).  The kernel keeps a lazy-invalidation
  binary heap ordered by ``(share, link index)``; lexicographic order on
  that pair is exactly "lowest index among minimal shares".  A NaN share
  maps to a ``-inf`` heap key, matching ``argmin``'s "first NaN wins"
  rule, and then terminates the loop through the same ``isfinite``
  check;
* per-link crossing counts accumulate in selected-group order (the
  order ``np.bincount`` adds its weights), and the residual/load update
  computes ``residual - (share * count)`` as two separate operations —
  ``-ffp-contract=off`` forbids the compiler from fusing them into an
  FMA, which would round differently;
* links untouched by a round keep their residual/load words bitwise
  unchanged, so recomputing their share next round is the same division
  of the same operands — the heap can therefore skip them entirely;
* the set-up copies ``capacity`` and converts the int64 link loads and
  group counts to double, as ``np.copyto(..., casting="unsafe")`` does:
  one correctly rounded conversion per element (exact below 2**53), in
  any order, so moving it into C changes no bit.

The per-instant ledger passes:

* ``advance`` computes ``moved = rate * dt`` once per row, clamps
  ``remaining - moved`` like ``np.maximum(x, 0.0)`` (a NaN propagates,
  ``-0.0`` becomes ``+0.0``), gates everything on "some row moved a
  positive amount", and adds each positive ``moved`` to the row's links
  in (row, link-in-path) order — the order ``np.add.at`` applies them,
  which matters because float addition is not associative;
* ``assign`` scatters group rates to live rows and returns the minimum
  of ``remaining / rate`` over moving rows; the minimum of exact values
  is order-free (bar the sign of a zero, which the timer's
  ``now + max(eta, 0.0)`` erases), and a NaN quotient wins, as in
  numpy's ``min``;
* ``finish_scan`` evaluates ``remaining <= eps * size + eps`` with the
  same two rounded operations; ``release`` is integer bookkeeping.

If no C compiler is available (or ``REPRO_WATERFILL=python`` is set)
the network stays on the numpy path; nothing else changes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* 16-byte heap entry: share key + link index.  Lexicographic order on
   (key, idx) == "lowest link index among minimal shares" == the numpy
   argmin tie-break the pure-python loop relies on. */
typedef struct { double key; int64_t idx; } entry;

static int entry_lt(entry a, entry b) {
    return a.key < b.key || (a.key == b.key && a.idx < b.idx);
}

static void heap_push(entry *h, int64_t *len, entry e) {
    int64_t i = (*len)++;
    h[i] = e;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (entry_lt(h[i], h[p])) {
            entry t = h[p]; h[p] = h[i]; h[i] = t;
            i = p;
        } else {
            break;
        }
    }
}

static entry heap_pop(entry *h, int64_t *len) {
    entry top = h[0];
    int64_t n = --(*len);
    h[0] = h[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && entry_lt(h[l], h[m])) m = l;
        if (r < n && entry_lt(h[r], h[m])) m = r;
        if (m == i) break;
        entry t = h[m]; h[m] = h[i]; h[i] = t;
        i = m;
    }
    return top;
}

static double share_of(double residual, double load) {
    return load > 0.0 ? residual / load : INFINITY;
}

/* NaN sorts below everything: numpy argmin returns the first NaN. */
static double key_of(double share) {
    return isnan(share) ? -INFINITY : share;
}

/* Every array the kernels touch, bound by address once per
   (re)allocation; the field order is _SLOTS in the Python module.  The
   first block is the network's, the second the fill's scratch. */
typedef struct {
    const double *capacity;      /* [links] */
    int64_t *load_counts;        /* [links] crossing rows per link */
    double *link_bytes;          /* [links] bytes moved per link */
    const int64_t *gpaths;       /* [groups*2] link ids, -1 = none */
    int64_t *gcount;             /* [groups] rows per group */
    const int64_t *csr_groups;   /* CSR payload: groups sorted by link */
    const int64_t *csr_starts;   /* [links+1] CSR row starts */
    const int64_t *paths;        /* [rows*2] link ids, -1 = none */
    double *remaining;           /* [rows] */
    double *rates;               /* [rows] */
    const double *sizes;         /* [rows] */
    const int64_t *gids;         /* [rows] */
    unsigned char *live;         /* [rows] numpy bool */
    int64_t *picked;             /* [rows] finished rows, row order */
    double *residual;            /* [links] */
    double *load;                /* [links] */
    double *keys;                /* [links] */
    unsigned char *fixed;        /* [links] */
    double *counts;              /* [links] */
    double *gcountf;             /* [groups] */
    unsigned char *gunfixed;     /* [groups] */
    int64_t *touched;            /* [2*groups + 2] */
    entry *heap;                 /* [links + 2*groups + 4] */
} ledger;

/* np.maximum(x, 0.0): a NaN propagates and -0.0 yields +0.0. */
static double clamp0(double x) {
    return (isnan(x) || x > 0.0) ? x : 0.0;
}

/* Move dt seconds of bytes: the numpy body of FluidNetwork._advance.
   Nothing happens unless some row moves a positive amount; then every
   row's remaining is clamped, and link bytes accumulate in (row,
   link-in-path) order, the order np.add.at adds them. */
void advance(const ledger *L, int64_t n, double dt) {
    const double *rates = L->rates;
    int64_t i = 0;
    while (i < n && !(rates[i] * dt > 0.0)) i++;
    if (i == n) return;
    double *remaining = L->remaining;
    double *link_bytes = L->link_bytes;
    const int64_t *paths = L->paths;
    for (i = 0; i < n; i++) {
        double moved = rates[i] * dt;
        /* Two rounded ops (-ffp-contract=off): no fused multiply-sub. */
        remaining[i] = clamp0(remaining[i] - moved);
        if (moved > 0.0) {
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = paths[2 * i + c];
                if (link >= 0) link_bytes[link] += moved;
            }
        }
    }
}

/* Rows take their group's rate (live rows only when tombstones exist:
   a dead row's rate stays exactly 0), and the earliest completion
   remaining / rate over moving rows comes back -- NaN if any quotient
   is NaN, like numpy's min; -inf when no row moves. */
double assign(const ledger *L, int64_t n, const double *grates,
              int64_t only_live) {
    const unsigned char *live = L->live;
    const int64_t *gids = L->gids;
    const double *remaining = L->remaining;
    double *rates = L->rates;
    int moving = 0;
    double eta = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        if (only_live && !live[i]) continue;
        double rate = grates[gids[i]];
        rates[i] = rate;
        if (rate > 0.0) {
            double q = remaining[i] / rate;
            if (!moving) {
                eta = q;
                moving = 1;
            } else if (!isnan(eta) && (isnan(q) || q < eta)) {
                eta = q;
            }
        }
    }
    return eta;
}

/* The timer's finish scan: rows with remaining <= eps*size + eps (live
   rows only when tombstones exist) go to picked in row order. */
int64_t finish_scan(const ledger *L, int64_t n, int64_t only_live,
                    double eps) {
    const unsigned char *live = L->live;
    const double *remaining = L->remaining;
    const double *sizes = L->sizes;
    int64_t *picked = L->picked;
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        if (only_live && !live[i]) continue;
        if (remaining[i] <= eps * sizes[i] + eps) picked[count++] = i;
    }
    return count;
}

/* Drop the first count picked rows' group memberships and link loads
   (exact integer decrements); tombstone them too (rate 0, live bit
   cleared) when asked. */
void release(const ledger *L, int64_t count, int64_t tombstone) {
    const int64_t *picked = L->picked;
    const int64_t *gids = L->gids;
    const int64_t *paths = L->paths;
    int64_t *gcount = L->gcount;
    int64_t *load_counts = L->load_counts;
    for (int64_t k = 0; k < count; k++) {
        int64_t row = picked[k];
        gcount[gids[row]] -= 1;
        for (int64_t c = 0; c < 2; c++) {
            int64_t link = paths[2 * row + c];
            if (link >= 0) load_counts[link] -= 1;
        }
        if (tombstone) {
            L->rates[row] = 0.0;
            L->live[row] = 0;
        }
    }
}

/* One max-min fill over nl links and ng groups into grates[ng]; the
   set-up (residual = capacity, int64 counts to double, cleared flags)
   is done here.  Returns the number of filling rounds. */
int64_t waterfill(const ledger *L, int64_t nl, int64_t ng, double *grates) {
    const int64_t *gpaths = L->gpaths;
    const int64_t *sorted_groups = L->csr_groups;
    const int64_t *starts = L->csr_starts;
    double *residual = L->residual;
    double *load = L->load;
    double *keys = L->keys;
    unsigned char *fixed_link = L->fixed;
    double *counts = L->counts;
    double *gcountf = L->gcountf;
    unsigned char *gunfixed = L->gunfixed;
    int64_t *touched = L->touched;
    entry *heap = L->heap;
    int64_t unfixed_flows = 0;
    for (int64_t i = 0; i < nl; i++) {
        residual[i] = L->capacity[i];
        load[i] = (double) L->load_counts[i];
        fixed_link[i] = 0;
        counts[i] = 0.0;
    }
    for (int64_t g = 0; g < ng; g++) {
        gcountf[g] = (double) L->gcount[g];
        gunfixed[g] = 1;
        grates[g] = 0.0;
        unfixed_flows += L->gcount[g];
    }
    int64_t heap_len = 0;
    int64_t rounds = 0;
    for (int64_t i = 0; i < nl; i++) {
        double k = key_of(share_of(residual[i], load[i]));
        keys[i] = k;
        entry e; e.key = k; e.idx = i;
        heap_push(heap, &heap_len, e);
    }
    while (1) {
        int64_t bottleneck = -1;
        while (heap_len > 0) {
            entry e = heap_pop(heap, &heap_len);
            if (fixed_link[e.idx]) continue;       /* fixed in a past round */
            if (e.key != keys[e.idx]) continue;    /* stale entry */
            bottleneck = e.idx;
            break;
        }
        if (bottleneck < 0) break;                 /* every link fixed */
        double share = share_of(residual[bottleneck], load[bottleneck]);
        if (!isfinite(share)) break;
        if (0.0 > share) share = 0.0;              /* == max(share, 0.0) */
        int64_t ntouched = 0;
        int64_t fixed_count = 0;
        int64_t any = 0;
        for (int64_t k = starts[bottleneck]; k < starts[bottleneck + 1];
             k++) {
            int64_t g = sorted_groups[k];
            if (!gunfixed[g]) continue;
            any = 1;
            grates[g] = share;
            gunfixed[g] = 0;
            double w = gcountf[g];
            fixed_count += (int64_t) w;
            for (int64_t c = 0; c < 2; c++) {
                int64_t link = gpaths[2 * g + c];
                if (link < 0) continue;
                if (counts[link] == 0.0) touched[ntouched++] = link;
                counts[link] += w;
            }
        }
        if (!any) break;
        for (int64_t t = 0; t < ntouched; t++) {
            int64_t link = touched[t];
            double c = counts[link];
            counts[link] = 0.0;
            /* Two rounded ops, exactly like numpy's
               "residual -= share * counts": no FMA (-ffp-contract=off). */
            double sub = share * c;
            residual[link] = residual[link] - sub;
            load[link] = load[link] - c;
            if (link == bottleneck) continue;      /* pinned to 0 below */
            double k = key_of(share_of(residual[link], load[link]));
            keys[link] = k;
            entry e; e.key = k; e.idx = link;
            heap_push(heap, &heap_len, e);
        }
        residual[bottleneck] = 0.0;
        load[bottleneck] = 0.0;
        fixed_link[bottleneck] = 1;
        unfixed_flows -= fixed_count;
        rounds++;
        if (unfixed_flows <= 0) break;
    }
    return rounds;
}
"""

# The ledger struct's fields, in C order, with each array's dtype.
_SLOTS = (
    ("capacity", np.float64),
    ("load_counts", np.int64),
    ("link_bytes", np.float64),
    ("gpaths", np.int64),
    ("gcount", np.int64),
    ("csr_groups", np.int64),
    ("csr_starts", np.int64),
    ("paths", np.int64),
    ("remaining", np.float64),
    ("rates", np.float64),
    ("sizes", np.float64),
    ("gids", np.int64),
    ("live", np.bool_),
    ("picked", np.int64),
    ("residual", np.float64),
    ("load", np.float64),
    ("keys", np.float64),
    ("fixed", np.uint8),
    ("counts", np.float64),
    ("gcountf", np.float64),
    ("gunfixed", np.uint8),
    ("touched", np.int64),
    ("heap", np.float64),
)
_SLOT_DTYPES = {name: np.dtype(dtype) for name, dtype in _SLOTS}


class _Slots(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name, _ in _SLOTS]


_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# (kernel, return type, argument types); the first argument is always
# the address of the bound ledger struct.
_SIGNATURES = (
    ("advance", None, [_PTR, _I64, _F64]),
    ("waterfill", _I64, [_PTR, _I64, _I64, _PTR]),
    ("assign", _F64, [_PTR, _I64, _PTR, _I64]),
    ("finish_scan", _I64, [_PTR, _I64, _I64, _F64]),
    ("release", None, [_PTR, _I64, _I64]),
)

# What ``assign`` returns when no row moves: a real ETA is a quotient of
# non-negative remaining bytes by a positive rate, never -inf.
NOTHING_MOVING = -math.inf

# Arena slab size in doubles (512 KiB); larger rate arrays get a slab each.
_SLAB_DOUBLES = 1 << 16

# src/repro/netsim/_waterfill.py -> repo root / build / waterfill
_BUILD_DIR = Path(__file__).resolve().parents[3] / "build" / "waterfill"

_kernel: Optional[ctypes.CDLL] = None
_kernel_probed = False


def _compile() -> Optional[ctypes.CDLL]:
    """Compile the kernel into the repo build dir; None on any failure."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    lib_path = _BUILD_DIR / f"waterfill_{digest}.so"
    try:
        if not lib_path.exists():
            _BUILD_DIR.mkdir(parents=True, exist_ok=True)
            src_path = _BUILD_DIR / f"waterfill_{digest}.c"
            src_path.write_text(_C_SOURCE)
            tmp_path = lib_path.with_suffix(f".tmp{os.getpid()}.so")
            subprocess.run(
                [
                    os.environ.get("CC", "cc"),
                    "-O2", "-fPIC", "-shared", "-ffp-contract=off",
                    "-o", str(tmp_path), str(src_path), "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, lib_path)  # atomic vs concurrent builds
        lib = ctypes.CDLL(str(lib_path))
    except Exception:
        return None
    for name, restype, argtypes in _SIGNATURES:
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel, or None (no compiler / opted out)."""
    global _kernel, _kernel_probed
    if not _kernel_probed:
        _kernel_probed = True
        if os.environ.get("REPRO_WATERFILL", "").lower() not in (
            "python", "off", "0",
        ):
            _kernel = _compile()
    return _kernel


class Ledger:
    """The compiled kernels bound to one network's arrays.

    Each kernel takes the address of one C struct of array addresses
    (``_SLOTS``), so a call converts two to four scalars instead of a
    dozen ``ndarray.ctypes.data`` lookups.  The network rebinds an array
    whenever it reallocates it (:meth:`bind`); every bound array is held
    here, so no address can outlive its buffer.  The fill's scratch
    buffers are owned here and regrown with geometric headroom
    (:meth:`reserve`): a solve runs thousands of times per iteration at
    fleet scale, and fresh multi-hundred-KB buffers per call would cost
    more in page faults than the filling loop itself.

    The kernels, with the network's row count ``n``:

    * ``advance(n, dt)`` moves ``dt`` seconds of bytes;
    * ``waterfill(num_links, num_groups, grates_address)`` fills the
      per-group rates into the array at ``grates_address``;
    * ``assign(n, grates_address, only_live)`` hands every (live) row its
      group's rate and returns the next completion's ETA, or
      :data:`NOTHING_MOVING`;
    * ``finish_scan(n, only_live, eps)`` writes the finished rows to the
      bound ``picked`` buffer and returns their count;
    * ``release(count, tombstone)`` drops the group and link loads of
      the first ``count`` picked rows, and zeroes their rate and live bit
      when ``tombstone`` is set.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._slots = _Slots()
        self._arrays: Dict[str, np.ndarray] = {}
        address = ctypes.addressof(self._slots)
        for name, _, _ in _SIGNATURES:
            setattr(self, name, functools.partial(getattr(lib, name), address))
        self._links = self._groups = -1
        # The arena rate arrays are carved from: (slab, address) pairs,
        # the slab being carved and the doubles already used in it.
        self._slabs: List[Tuple[np.ndarray, int]] = []
        self._slab = 0
        self._used = 0

    def bind(self, **arrays: np.ndarray) -> None:
        """Point the named slots at ``arrays`` (kept alive here)."""
        for name, array in arrays.items():
            dtype = _SLOT_DTYPES[name]
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise TypeError(
                    f"slot {name!r} needs a C-contiguous {dtype} array"
                )
            self._arrays[name] = array
            setattr(self._slots, name, array.ctypes.data)

    def reserve(self, num_links: int, num_groups: int) -> None:
        """Grow the fill's scratch to ``num_links`` x ``num_groups``."""
        if num_links <= self._links and num_groups <= self._groups:
            return
        nl = num_links * 3 // 2 + 64
        ng = num_groups * 3 // 2 + 64
        self._links, self._groups = nl, ng
        self.bind(
            residual=np.empty(nl),
            load=np.empty(nl),
            keys=np.empty(nl),
            fixed=np.empty(nl, dtype=np.uint8),
            counts=np.empty(nl),
            gcountf=np.empty(ng),
            gunfixed=np.empty(ng, dtype=np.uint8),
            touched=np.empty(2 * ng + 2, dtype=np.int64),
            heap=np.empty(2 * (nl + 2 * ng + 4)),  # (double, int64) pairs
        )

    def carve(self, size: int) -> Tuple[np.ndarray, int]:
        """A fresh ``size``-double array from the arena, and its address.

        Memoized rate arrays live until the next :meth:`rewind`; carving
        them from reused slabs costs neither an allocation nor an address
        lookup per solve, and writes into warm pages (fresh
        multi-hundred-KB arrays would fault in new pages on every solve at
        fleet scale, which costs more than the solve itself).
        """
        slabs = self._slabs
        while self._slab < len(slabs):
            slab, base = slabs[self._slab]
            start = self._used
            if start + size <= slab.shape[0]:
                self._used = start + size
                return slab[start:start + size], base + 8 * start
            self._slab += 1
            self._used = 0
        slab = np.empty(max(_SLAB_DOUBLES, size))
        slabs.append((slab, slab.ctypes.data))
        return self.carve(size)

    def rewind(self) -> None:
        """Reuse the arena from its start: every carved array is dead."""
        self._slab = 0
        self._used = 0


