"""Spans and counters recorded around the program's public functions.

`Tracer.install` replaces every public function of every module of the
package, and the public methods of `MonomialIdeal` and
`RationalFunction`, with a timing wrapper.  The wrapper replaces the
function wherever a module binds it, so a name that one module imports
from another (`decide.circuits_and_sccs`, `oracle.gf2_rank`,
`ext.bareiss_det`) is timed under its defining module.  `uninstall`
puts the originals back, so untraced runs execute the program as is.

Each call records a span (id, name, start, end, parent id) in memory,
up to a limit, and adds its duration and self time to a per-name
aggregate that is always complete.  Self time is the span's duration
minus the time its child spans cover; a layer's self time is the sum
over its functions.  A generator function gets one span per item it
produces, so the time the consumer spends between items is not charged
to the generator.
"""

import inspect
import time
from contextlib import contextmanager

LAYERS = ("presentation", "monomial", "graph", "walks", "ext", "decide",
          "ratfun", "oracle", "linalg", "cli")
CLASS_METHODS = {
    "monomial": ("MonomialIdeal",
                 ("__init__", "contains", "occurrences", "sort_key",
                  "normal_count")),
    "ratfun": ("RationalFunction", ("series",)),
}


class Record:
    """What one traced pass recorded, with the queries the metrics use."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.agg = {}      # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self.notes = []    # arguments kept by hooks for later analysis

    def self_ms(self, *names):
        return 1000.0 * sum(self.agg[n][2] for n in names if n in self.agg)

    def total_ms(self, *names):
        return 1000.0 * sum(self.agg[n][1] for n in names if n in self.agg)

    def calls(self, *names):
        return sum(self.agg[n][0] for n in names if n in self.agg)

    def layer_self_ms(self, layer):
        prefix = layer + "."
        return 1000.0 * sum(entry[2] for name, entry in self.agg.items()
                            if name.startswith(prefix))


class Tracer:
    def __init__(self, span_limit=100_000):
        self.span_limit = span_limit
        self._patches = []
        self._hooks = {}
        self._raise_hooks = {}
        self.reset()

    def reset(self):
        """Start a new Record; the previous one stays with its holders."""
        self.stack = []
        self.next_id = 0
        self.record = Record()

    def count(self, name, n=1):
        counts = self.record.counts
        counts[name] = counts.get(name, 0) + n

    def maximum(self, name, value):
        counts = self.record.counts
        counts[name] = max(counts.get(name, value), value)

    def on_return(self, name, hook):
        """Call hook(args, result) after each call of name that returns,
        or after each item a generator function produces."""
        self._hooks[name] = hook

    def on_raise(self, name, hook):
        """Call hook(args, exception) when a call of name raises."""
        self._raise_hooks[name] = hook

    def active(self, name):
        return any(frame[1] == name for frame in self.stack)

    def _enter(self, name):
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0])
        self.next_id += 1

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        record = self.record
        entry = record.agg.get(name)
        if entry is None:
            entry = record.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if len(record.spans) < self.span_limit:
            record.spans.append((sid, name, start, end, parent))
        else:
            record.dropped += 1

    def _wrap(self, name, fn):
        hooks, raise_hooks = self._hooks, self._raise_hooks
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)

                def items():
                    while True:
                        enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            leave()
                            return
                        except BaseException:
                            leave()
                            raise
                        leave()
                        hook = hooks.get(name)
                        if hook is not None:
                            hook(args, item)
                        yield item
                return items()
        else:
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    leave()
                    hook = raise_hooks.get(name)
                    if hook is not None:
                        hook(args, exc)
                    raise
                leave()
                hook = hooks.get(name)
                if hook is not None:
                    hook(args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, modules, also=()):
        """Wrap the public functions of each module in {layer: module}.

        Bindings of those functions in the modules and in the namespaces
        of `also` (the package itself) are replaced as well.
        """
        originals = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            if layer in CLASS_METHODS:
                cls_name, methods = CLASS_METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth,
                            self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in list(modules.values()) + list(also):
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    @contextmanager
    def tracing(self, modules, also=()):
        self.install(modules, also)
        try:
            yield self
        finally:
            self.uninstall()
