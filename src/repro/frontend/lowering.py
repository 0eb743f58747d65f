"""AST lowering + type inference for the device-Python subset (§6.1).

One walk over the kernel's AST produces the typed :class:`~repro.frontend.
cfg.KernelCFG`: every arithmetic node is classified into its Table-1
instruction class as it is visited (type inference decides ``int_*`` vs
``float_*``), subscripts become :class:`~repro.frontend.cfg.Access`
records with affine index forms for the reuse analysis, and ``for v in
range(...)`` loops become :class:`~repro.frontend.cfg.CountedLoop` s with
compile-time trip counts. Anything outside the subset produces a located
diagnostic instead of a wrong count.

The subset, informally (``docs/FRONTEND.md`` has the full rules):

- parameters: work-item ids (``gid``/``lid``), arrays annotated
  ``global_f32`` / ``global_i32`` / ``local_f32`` / ``local_i32``
  (unannotated array parameters default to ``global_f32``), and scalar
  constants annotated ``i32`` / ``f32`` with literal defaults;
- statements: assignments to locals and array elements, augmented
  assignments, ``for`` over literal-bounded ``range``, ``pass``, bare
  ``return``, ``barrier()``;
- expressions: int/float literals, arithmetic (``+ - * / // % **``),
  bitwise ops on ints, unary minus, subscript loads, calls to the special
  -function intrinsics (``sqrt``, ``exp``, ...), ``abs``/``min``/``max``,
  ``float()``/``int()`` casts, and ``local(f32, N)`` local-array
  declarations.

Classification rules: ``+``/``-`` count ``int_add``/``float_add``;
``*`` counts ``int_mul``/``float_mul``; ``/`` always counts
``float_div``; ``//`` and ``%`` count ``int_div`` on ints and
``float_div`` otherwise; ``**`` and the math intrinsics count ``sf``;
bitwise ops count ``int_bw``; mixed int/float operands promote to float
with no extra cast cost. ``range`` bounds are compile-time folded and
count nothing (the paper's pass resolves loop bookkeeping statically);
all other arithmetic counts exactly as written — there is no CSE, so the
source is the register-allocated form of the kernel.
"""

from __future__ import annotations

import ast

from repro.frontend import diagnostics as D
from repro.frontend.cfg import (
    Access,
    AffineIndex,
    ArrayType,
    Block,
    CountedLoop,
    KernelCFG,
    Region,
    Scalar,
    Space,
)

#: Special-function intrinsics — each call counts one ``sf`` (Table 1).
SF_INTRINSICS: frozenset[str] = frozenset({
    "sqrt", "rsqrt", "cbrt", "exp", "exp2", "expm1", "log", "log2",
    "log10", "log1p", "sin", "cos", "tan", "asin", "acos", "atan",
    "atan2", "sinh", "cosh", "tanh", "erf", "erfc", "pow",
})

#: Cheap ALU intrinsics — one add-class op (int or float by promotion).
ADD_INTRINSICS: frozenset[str] = frozenset({"abs", "min", "max"})

#: Parameter names conventionally bound to work-item ids (typed int).
ID_PARAMS: frozenset[str] = frozenset({"gid", "lid"})

#: Recognized parameter annotations.
_ANNOTATIONS: dict[str, ArrayType | Scalar] = {
    "i32": Scalar.INT,
    "f32": Scalar.FLOAT,
    "global_f32": ArrayType(Space.GLOBAL, Scalar.FLOAT),
    "global_i32": ArrayType(Space.GLOBAL, Scalar.INT),
    "local_f32": ArrayType(Space.LOCAL, Scalar.FLOAT),
    "local_i32": ArrayType(Space.LOCAL, Scalar.INT),
}

_EMPTY_AFFINE: tuple[tuple[str, int], ...] = ()


def _affine_const(c: int) -> AffineIndex:
    return AffineIndex(coeffs=_EMPTY_AFFINE, const=c)


def _affine_var(name: str) -> AffineIndex:
    return AffineIndex(coeffs=((name, 1),), const=0)


def _affine_add(a: AffineIndex, b: AffineIndex, sign: int) -> AffineIndex:
    coeffs = dict(a.coeffs)
    for name, k in b.coeffs:
        coeffs[name] = coeffs.get(name, 0) + sign * k
    pruned = tuple(sorted((n, k) for n, k in coeffs.items() if k != 0))
    return AffineIndex(coeffs=pruned, const=a.const + sign * b.const)


def _affine_scale(a: AffineIndex, k: int) -> AffineIndex:
    if k == 0:
        return _affine_const(0)
    coeffs = tuple(sorted((n, c * k) for n, c in a.coeffs))
    return AffineIndex(coeffs=coeffs, const=a.const * k)


class _Value:
    """Result of walking one expression: type + optional static views."""

    __slots__ = ("type", "affine", "const")

    def __init__(
        self,
        type_: Scalar | ArrayType,
        affine: AffineIndex | None = None,
        const: int | float | None = None,
    ) -> None:
        self.type = type_
        self.affine = affine
        self.const = const


_ERROR = _Value(Scalar.FLOAT)  # recovery value after a diagnostic


def _promote(a: Scalar, b: Scalar) -> Scalar:
    return Scalar.FLOAT if Scalar.FLOAT in (a, b) else Scalar.INT


class Lowerer:
    """One-shot lowering of a ``FunctionDef`` into a :class:`KernelCFG`."""

    def __init__(
        self,
        name: str,
        sink: D.DiagnosticSink,
        constants: dict[str, int | float] | None = None,
    ) -> None:
        self.name = name
        self.sink = sink
        self.env: dict[str, Scalar | ArrayType] = {}
        self.consts: dict[str, int | float] = dict(constants or {})
        self.affines: dict[str, AffineIndex] = {}
        self.region_stack: list[Region] = []
        #: >0 while re-walking an already-counted subexpression (the index
        #: of an augmented-assignment store): nothing is emitted or
        #: re-reported.
        self._quiet = 0
        #: Barrier-phase counter: incremented by every ``barrier()`` so
        #: accesses record which synchronization phase they execute in.
        self._phase = 0

    # ------------------------------------------------------------ plumbing

    @property
    def block(self) -> Block:
        return self.region_stack[-1].tail_block()

    def _error(self, node: ast.AST | None, code: str, msg: str) -> _Value:
        if not self._quiet:
            self.sink.report(node, code, msg)
        return _ERROR

    # ----------------------------------------------------------- signature

    def lower(self, fn: ast.FunctionDef) -> KernelCFG:
        self._bind_params(fn)
        body = Region()
        self.region_stack.append(body)
        stmts = fn.body
        # Skip a leading docstring.
        if (
            stmts
            and isinstance(stmts[0], ast.Expr)
            and isinstance(stmts[0].value, ast.Constant)
            and isinstance(stmts[0].value.value, str)
        ):
            stmts = stmts[1:]
        for stmt in stmts:
            self._stmt(stmt)
        self.region_stack.pop()
        params = dict(self.env)
        return KernelCFG(name=self.name, params=params, body=body)

    def _bind_params(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        if args.vararg or args.kwarg or args.kwonlyargs:
            self.sink.report(
                fn, D.BAD_SIGNATURE,
                "device kernels take only plain positional parameters",
            )
        defaults = dict(
            zip((a.arg for a in reversed(args.args)), reversed(args.defaults))
        )
        for arg in list(args.posonlyargs) + list(args.args):
            typ = self._param_type(arg)
            self.env[arg.arg] = typ
            if typ is Scalar.INT:
                self.affines[arg.arg] = _affine_var(arg.arg)
            default = defaults.get(arg.arg)
            if default is not None:
                if isinstance(default, ast.Constant) and isinstance(
                    default.value, (int, float)
                ) and not isinstance(default.value, bool):
                    self.consts[arg.arg] = default.value
                else:
                    self.sink.report(
                        default, D.BAD_SIGNATURE,
                        f"default for {arg.arg!r} must be an int/float literal",
                    )

    def _param_type(self, arg: ast.arg) -> Scalar | ArrayType:
        ann = arg.annotation
        if ann is None:
            if arg.arg in ID_PARAMS:
                return Scalar.INT
            return ArrayType(Space.GLOBAL, Scalar.FLOAT)
        label: str | None = None
        if isinstance(ann, ast.Name):
            label = ann.id
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            label = ann.value
        if label in _ANNOTATIONS:
            return _ANNOTATIONS[label]
        self.sink.report(
            ann, D.BAD_SIGNATURE,
            f"unknown parameter annotation on {arg.arg!r} "
            f"(use one of {sorted(_ANNOTATIONS)})",
        )
        return ArrayType(Space.GLOBAL, Scalar.FLOAT)

    # ---------------------------------------------------------- statements

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._ann_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._error(
                    stmt, D.RETURN_VALUE,
                    "device kernels return results through arrays, not values",
                )
        elif isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt)
        else:
            self._error(
                stmt, D.UNSUPPORTED_STATEMENT,
                f"{type(stmt).__name__} is outside the device-Python subset "
                "(only assignments, counted for-loops, pass and barrier())",
            )

    def _expr_stmt(self, stmt: ast.Expr) -> None:
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "barrier"
            and not value.args
            and not value.keywords
        ):
            # Work-group barrier: synchronization only, zero ops — but it
            # opens a new phase for the race pass's ordering suppression.
            self._phase += 1
            return
        self._error(
            stmt, D.UNSUPPORTED_STATEMENT,
            "expression statements other than barrier() have no effect "
            "on a device kernel",
        )

    def _assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            self._error(
                stmt, D.BAD_ASSIGNMENT_TARGET,
                "chained assignment is not supported",
            )
            return
        self._assign_one(stmt.targets[0], stmt.value, stmt)

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is None:
            self._error(
                stmt, D.BAD_ASSIGNMENT_TARGET,
                "annotation without a value is not supported",
            )
            return
        self._assign_one(stmt.target, stmt.value, stmt)

    def _assign_one(
        self, target: ast.expr, value: ast.expr, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            # Local array declaration: tile = local(f32, N).
            if self._is_local_decl(value):
                self.env[target.id] = self._local_decl(value)  # type: ignore[arg-type]
                self.affines.pop(target.id, None)
                self.consts.pop(target.id, None)
                return
            v = self._expr(value)
            if isinstance(v.type, ArrayType):
                self._error(
                    stmt, D.ARRAY_ALIASING,
                    f"binding array to a second name {target.id!r} would "
                    "alias it; index the original instead",
                )
                return
            self.env[target.id] = v.type
            if v.affine is not None and v.type is Scalar.INT:
                self.affines[target.id] = v.affine
            else:
                self.affines.pop(target.id, None)
            if v.const is not None:
                self.consts[target.id] = v.const
            else:
                self.consts.pop(target.id, None)
        elif isinstance(target, ast.Subscript):
            v = self._expr(value)
            if isinstance(v.type, ArrayType):
                self._error(
                    stmt, D.ARRAY_ALIASING,
                    "storing an array reference into an array element",
                )
                return
            self._access(target, is_store=True)
        else:
            self._error(
                target, D.BAD_ASSIGNMENT_TARGET,
                f"cannot assign to {type(target).__name__} "
                "(tuple unpacking and attribute stores are unsupported)",
            )

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            current = self.env.get(name)
            if current is None:
                self._error(
                    stmt, D.TYPE_ERROR,
                    f"augmented assignment to unbound name {name!r}",
                )
                return
            if isinstance(current, ArrayType):
                self._error(
                    stmt, D.TYPE_ERROR,
                    f"augmented assignment to array {name!r}",
                )
                return
            v = self._expr(stmt.value)
            if isinstance(v.type, ArrayType):
                self._error(stmt, D.TYPE_ERROR, "array used as a scalar operand")
                return
            lhs = _Value(current, self.affines.get(name))
            result = self._binop_result(stmt.op, lhs, v, stmt)
            self.env[name] = result.type
            if result.affine is not None and result.type is Scalar.INT:
                self.affines[name] = result.affine
            else:
                self.affines.pop(name, None)
            self.consts.pop(name, None)
        elif isinstance(stmt.target, ast.Subscript):
            loaded = self._access(stmt.target, is_store=False)
            v = self._expr(stmt.value)
            self._binop_result(stmt.op, loaded, v, stmt)
            self._access(stmt.target, is_store=True, count_index_ops=False)
        else:
            self._error(
                stmt.target, D.BAD_ASSIGNMENT_TARGET,
                f"cannot augment-assign to {type(stmt.target).__name__}",
            )

    # --------------------------------------------------------------- loops

    def _for(self, stmt: ast.For) -> None:
        if stmt.orelse:
            self._error(
                stmt, D.MALFORMED_LOOP, "for/else is not supported"
            )
        if not isinstance(stmt.target, ast.Name):
            self._error(
                stmt.target, D.MALFORMED_LOOP,
                "loop target must be a single name",
            )
            return
        trip, start, step = self._trip_count(stmt)
        var = stmt.target.id
        # Loop variable: int, affine in itself, not a compile-time const.
        saved = (
            self.env.get(var), self.affines.get(var), self.consts.get(var)
        )
        self.env[var] = Scalar.INT
        self.affines[var] = _affine_var(var)
        self.consts.pop(var, None)
        body = Region()
        self.region_stack.append(body)
        for inner in stmt.body:
            self._stmt(inner)
        self.region_stack.pop()
        self.region_stack[-1].items.append(
            CountedLoop(var=var, trip_count=trip, body=body, line=stmt.lineno,
                        start=start, step=step)
        )
        # After the loop the variable stays bound (Python semantics) but
        # its value is no longer a compile-time constant.
        if saved[0] is not None and saved[0] is not Scalar.INT:
            self.env[var] = saved[0]

    def _trip_count(self, stmt: ast.For) -> tuple[int, int, int]:
        """Fold the loop's range; returns ``(trip_count, start, step)``."""
        it = stmt.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            self._error(
                it, D.MALFORMED_LOOP,
                "device loops must iterate over range(...)",
            )
            return 0, 0, 1
        if it.keywords or not 1 <= len(it.args) <= 3:
            self._error(it, D.MALFORMED_LOOP, "malformed range(...) call")
            return 0, 0, 1
        bounds: list[int] = []
        for arg in it.args:
            value = self._const_int(arg)
            if value is None:
                self._error(
                    arg, D.DYNAMIC_LOOP_BOUND,
                    "loop bound is not a compile-time integer "
                    "(use a literal, or a scalar parameter with a default)",
                )
                return 0, 0, 1
            bounds.append(value)
        if len(bounds) == 3 and bounds[2] == 0:
            self._error(it.args[2], D.MALFORMED_LOOP, "range step cannot be 0")
            return 0, 0, 1
        start = bounds[0] if len(bounds) >= 2 else 0
        step = bounds[2] if len(bounds) == 3 else 1
        return len(range(*bounds)), start, step

    def _const_int(self, node: ast.expr) -> int | None:
        """Compile-time fold of a loop bound (counts no operations)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return node.value
            return None
        if isinstance(node, ast.Name):
            value = self.consts.get(node.id)
            return value if isinstance(value, int) else None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._const_int(node.operand)
            return None if inner is None else -inner
        if isinstance(node, ast.BinOp):
            left = self._const_int(node.left)
            right = self._const_int(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv) and right != 0:
                return left // right
            if isinstance(node.op, ast.Mod) and right != 0:
                return left % right
        return None

    # ---------------------------------------------------------- expressions

    def _expr(self, node: ast.expr) -> _Value:
        if isinstance(node, ast.Constant):
            return self._constant(node)
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.BinOp):
            left = self._expr(node.left)
            right = self._expr(node.right)
            if isinstance(left.type, ArrayType) or isinstance(
                right.type, ArrayType
            ):
                return self._error(
                    node, D.TYPE_ERROR, "array used as a scalar operand"
                )
            return self._binop_result(node.op, left, right, node)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.Subscript):
            return self._access(node, is_store=False)
        if isinstance(node, ast.Call):
            return self._call(node)
        return self._error(
            node, D.UNSUPPORTED_EXPRESSION,
            f"{type(node).__name__} is outside the device-Python subset "
            "(no comparisons, boolean logic, or container literals)",
        )

    def _constant(self, node: ast.Constant) -> _Value:
        v = node.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return self._error(
                node, D.UNSUPPORTED_EXPRESSION,
                f"literal {v!r} has no device type",
            )
        if isinstance(v, int):
            return _Value(Scalar.INT, _affine_const(v), v)
        return _Value(Scalar.FLOAT, None, v)

    def _name(self, node: ast.Name) -> _Value:
        typ = self.env.get(node.id)
        if typ is None:
            return self._error(
                node, D.TYPE_ERROR,
                f"unknown name {node.id!r} (parameters, locals and loop "
                "variables only; there is no closure capture)",
            )
        if isinstance(typ, ArrayType):
            return _Value(typ)
        return _Value(typ, self.affines.get(node.id), self.consts.get(node.id))

    def _unary(self, node: ast.UnaryOp) -> _Value:
        if isinstance(node.op, ast.Not):
            return self._error(
                node, D.UNSUPPORTED_EXPRESSION, "boolean not is unsupported"
            )
        # Fold a negated literal: -1 is a constant, not an operation.
        if isinstance(node.operand, ast.Constant) and isinstance(
            node.operand.value, (int, float)
        ) and not isinstance(node.operand.value, bool):
            value = node.operand.value
            if isinstance(node.op, ast.USub):
                value = -value
            elif isinstance(node.op, ast.Invert):
                if not isinstance(value, int):
                    return self._error(
                        node, D.TYPE_ERROR, "bitwise invert of a float literal"
                    )
                value = ~value
            if isinstance(value, int):
                return _Value(Scalar.INT, _affine_const(value), value)
            return _Value(Scalar.FLOAT, None, value)
        operand = self._expr(node.operand)
        if isinstance(operand.type, ArrayType):
            return self._error(
                node, D.TYPE_ERROR, "array used as a scalar operand"
            )
        if isinstance(node.op, ast.UAdd):
            return operand  # +x is the identity: no operation
        if isinstance(node.op, ast.Invert):
            if operand.type is not Scalar.INT:
                return self._error(
                    node, D.TYPE_ERROR, "bitwise invert of a float"
                )
            self._emit("int_bw", node)
            return _Value(Scalar.INT)
        # USub: negation is an add-class op (subtraction from zero).
        cls = "int_add" if operand.type is Scalar.INT else "float_add"
        self._emit(cls, node)
        affine = (
            _affine_scale(operand.affine, -1)
            if operand.affine is not None and operand.type is Scalar.INT
            else None
        )
        return _Value(operand.type, affine)

    def _binop_result(
        self, op: ast.operator, left: _Value, right: _Value, node: ast.AST
    ) -> _Value:
        lt, rt = left.type, right.type
        assert isinstance(lt, Scalar) and isinstance(rt, Scalar)
        out = _promote(lt, rt)
        if isinstance(op, (ast.Add, ast.Sub)):
            self._emit("int_add" if out is Scalar.INT else "float_add", node)
            affine = None
            if (
                out is Scalar.INT
                and left.affine is not None
                and right.affine is not None
            ):
                sign = 1 if isinstance(op, ast.Add) else -1
                affine = _affine_add(left.affine, right.affine, sign)
            return _Value(out, affine)
        if isinstance(op, ast.Mult):
            self._emit("int_mul" if out is Scalar.INT else "float_mul", node)
            affine = None
            if (
                out is Scalar.INT
                and left.affine is not None
                and right.affine is not None
            ):
                if not left.affine.coeffs:
                    affine = _affine_scale(right.affine, left.affine.const)
                elif not right.affine.coeffs:
                    affine = _affine_scale(left.affine, right.affine.const)
            return _Value(out, affine)
        if isinstance(op, ast.Div):
            self._emit("float_div", node)
            return _Value(Scalar.FLOAT)
        if isinstance(op, (ast.FloorDiv, ast.Mod)):
            if out is Scalar.INT:
                self._emit("int_div", node)
                return _Value(Scalar.INT)
            self._emit("float_div", node)
            return _Value(Scalar.FLOAT)
        if isinstance(op, ast.Pow):
            self._emit("sf", node)
            return _Value(Scalar.FLOAT)
        if isinstance(
            op, (ast.LShift, ast.RShift, ast.BitOr, ast.BitXor, ast.BitAnd)
        ):
            if out is not Scalar.INT:
                return self._error(
                    node, D.TYPE_ERROR, "bitwise operation on floats"
                )
            self._emit("int_bw", node)
            return _Value(Scalar.INT)
        return self._error(
            node, D.UNSUPPORTED_EXPRESSION,
            f"operator {type(op).__name__} is unsupported",
        )

    # ---------------------------------------------------------------- calls

    def _is_local_decl(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "local"
        )

    def _local_decl(self, node: ast.Call) -> ArrayType:
        elem = Scalar.FLOAT
        size: int | None = None
        ok = 1 <= len(node.args) <= 2 and not node.keywords
        if ok and isinstance(node.args[0], ast.Name):
            if node.args[0].id == "i32":
                elem = Scalar.INT
            elif node.args[0].id != "f32":
                ok = False
        else:
            ok = False
        if ok and len(node.args) == 2:
            size = self._const_int(node.args[1])
            if size is None:
                ok = False
        if not ok:
            self.sink.report(
                node, D.UNKNOWN_CALL,
                "local array declarations look like local(f32, SIZE) with a "
                "compile-time size",
            )
        return ArrayType(Space.LOCAL, elem, size)

    def _call(self, node: ast.Call) -> _Value:
        if not isinstance(node.func, ast.Name) or node.keywords:
            return self._error(
                node, D.UNKNOWN_CALL,
                "only direct calls to the device intrinsics are supported",
            )
        fname = node.func.id
        if fname == self.name:
            return self._error(
                node, D.UNKNOWN_CALL,
                f"recursive call to {fname!r}: device kernels cannot recurse",
            )
        args = [self._expr(a) for a in node.args]
        for a, src in zip(args, node.args):
            if isinstance(a.type, ArrayType):
                return self._error(
                    src, D.TYPE_ERROR, "array passed to a scalar intrinsic"
                )
        if fname in SF_INTRINSICS:
            if not 1 <= len(args) <= 2:
                return self._error(
                    node, D.UNKNOWN_CALL, f"{fname}() takes 1 or 2 arguments"
                )
            self._emit("sf", node)
            return _Value(Scalar.FLOAT)
        if fname in ADD_INTRINSICS:
            if not args:
                return self._error(
                    node, D.UNKNOWN_CALL, f"{fname}() needs an argument"
                )
            out = Scalar.INT
            for a in args:
                out = _promote(out, a.type)  # type: ignore[arg-type]
            self._emit("int_add" if out is Scalar.INT else "float_add", node)
            return _Value(out)
        if fname == "float":
            if len(args) != 1:
                return self._error(node, D.UNKNOWN_CALL, "float() takes 1 argument")
            return _Value(Scalar.FLOAT)  # cast: free, drops affine view
        if fname == "int":
            if len(args) != 1:
                return self._error(node, D.UNKNOWN_CALL, "int() takes 1 argument")
            return _Value(Scalar.INT, args[0].affine)
        if fname == "local":
            return self._error(
                node, D.UNKNOWN_CALL,
                "local(...) may only appear as `name = local(f32, SIZE)`",
            )
        return self._error(
            node, D.UNKNOWN_CALL,
            f"call to unknown function {fname!r} (device kernels cannot call "
            "user functions; intrinsics: sqrt/exp/... , abs/min/max, "
            "float/int, local, barrier)",
        )

    # -------------------------------------------------------------- memory

    def _access(
        self,
        node: ast.Subscript,
        *,
        is_store: bool,
        count_index_ops: bool = True,
    ) -> _Value:
        if not isinstance(node.value, ast.Name):
            return self._error(
                node, D.TYPE_ERROR, "only named arrays can be subscripted"
            )
        arr = self.env.get(node.value.id)
        if arr is None:
            return self._error(
                node.value, D.TYPE_ERROR,
                f"unknown array {node.value.id!r}",
            )
        if not isinstance(arr, ArrayType):
            return self._error(
                node.value, D.TYPE_ERROR,
                f"subscripting non-array {node.value.id!r}",
            )
        dims = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        affine_dims: list[AffineIndex] | None = []
        # Second visit of an augmented-assignment target: the index was
        # already evaluated (and counted) by the load — re-walk quietly.
        if not count_index_ops:
            self._quiet += 1
        try:
            for dim in dims:
                if isinstance(dim, ast.Slice):
                    return self._error(
                        dim, D.UNSUPPORTED_EXPRESSION,
                        "slices are not device subscripts",
                    )
                v = self._expr(dim)
                if isinstance(v.type, ArrayType) or v.type is not Scalar.INT:
                    self._error(
                        dim, D.TYPE_ERROR, "subscript indices must be integers"
                    )
                    affine_dims = None
                elif affine_dims is not None:
                    if v.affine is None:
                        affine_dims = None
                    else:
                        affine_dims.append(v.affine)
        finally:
            if not count_index_ops:
                self._quiet -= 1
        if not self._quiet:
            self.block.accesses.append(
                Access(
                    array=node.value.id,
                    space=arr.space,
                    is_store=is_store,
                    index=(
                        tuple(affine_dims) if affine_dims is not None else None
                    ),
                    line=node.lineno,
                    col=node.col_offset,
                    phase=self._phase,
                )
            )
        return _Value(arr.elem)

    def _emit(self, cls: str, node: ast.AST) -> None:
        from repro.frontend.cfg import Op

        if self._quiet:
            return
        self.block.ops.append(
            Op(
                cls=cls,
                line=getattr(node, "lineno", 0) or 0,
                col=getattr(node, "col_offset", 0) or 0,
            )
        )


def lower_kernel(
    fn: ast.FunctionDef,
    *,
    name: str | None = None,
    constants: dict[str, int | float] | None = None,
) -> tuple[KernelCFG, D.DiagnosticSink]:
    """Lower one kernel ``FunctionDef``; returns the CFG and its sink.

    The CFG is best-effort when diagnostics were reported — callers must
    check ``sink.has_errors`` before trusting the counts.
    """
    kernel_name = name or fn.name
    sink = D.DiagnosticSink(kernel_name)
    cfg = Lowerer(kernel_name, sink, constants).lower(fn)
    return cfg, sink
