"""IR code generation for MiniC.

Emits clang-at-``-O0``-style IR: every variable is an ``alloca`` with
explicit load/store traffic, short-circuit operators lower to control flow
through a temporary slot, and ``for``/``while`` lower to the canonical
header/body/step/exit shape. The standard pass pipeline (mem2reg and
friends) then rebuilds SSA — exactly the division of labour the paper's
compile-time component assumes.
"""

from __future__ import annotations

from ..errors import SemanticError
from ..interp.intrinsics import declare_intrinsics
from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.types import F64, I1, I32, VOID
from ..ir.values import ConstantFloat, ConstantInt
from . import ast_nodes as ast
from .parser import parse
from .sema import analyze

_COMPARE_INT = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
_COMPARE_FLOAT = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}
_ARITH_INT = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
              "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}
_ARITH_FLOAT = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


class _LoopTargets:
    __slots__ = ("break_block", "continue_block")

    def __init__(self, break_block, continue_block):
        self.break_block = break_block
        self.continue_block = continue_block


class CodeGenerator:
    """Generates one IR module from an analyzed MiniC program."""

    def __init__(self, sema_result, module_name="program"):
        self.sema = sema_result
        self.module = Module(module_name)
        self.builder = IRBuilder()
        self.function = None
        self.addresses = {}   # id(Symbol) -> address Value
        self.loop_stack = []
        self._block_counter = 0

    # -- driving --------------------------------------------------------------

    def run(self):
        declare_intrinsics(self.module)
        for declaration in self.sema.program.declarations:
            if isinstance(declaration, ast.GlobalDecl):
                symbol = self.sema.globals[declaration.name]
                self.module.add_global(
                    symbol.value_type, declaration.name, declaration.initializer
                )
        # Declare all user functions first (forward calls / recursion).
        for declaration in self.sema.program.declarations:
            if isinstance(declaration, ast.FunctionDecl):
                signature = self.sema.signatures[declaration.name]
                self.module.add_function(
                    declaration.name, signature.return_type, signature.param_types
                )
        for declaration in self.sema.program.declarations:
            if isinstance(declaration, ast.FunctionDecl):
                self._emit_function(declaration)
        return self.module

    def _new_block(self, hint):
        self._block_counter += 1
        return self.function.append_block(f"{hint}{self._block_counter}")

    # -- functions --------------------------------------------------------------

    def _emit_function(self, decl):
        self.function = self.module.get_function(decl.name)
        self.addresses = {}
        self._block_counter = 0
        entry = self.function.append_block("entry")
        self.builder.position_at_end(entry)
        # Spill parameters into stack slots (mem2reg re-promotes them).
        for param_ast, argument in zip(decl.params, self.function.arguments):
            argument.name = param_ast.name
            slot = self.builder.alloca(argument.type, param_ast.name)
            self.builder.store(argument, slot)
            self._bind(param_ast, slot)
        self._emit_block(decl.body)
        if self.builder.block.terminator is None:
            return_type = self.function.function_type.return_type
            if return_type is VOID:
                self.builder.ret()
            elif return_type is F64:
                self.builder.ret(ConstantFloat(0.0))
            else:
                self.builder.ret(ConstantInt(return_type, 0))
        self.function = None

    def _bind(self, decl_node, address):
        """Associate a declaration's sema Symbol with its storage address
        (keyed by symbol identity, so shadowed names resolve correctly)."""
        self.addresses[id(decl_node.symbol)] = address

    # -- statements --------------------------------------------------------------

    def _emit_block(self, block):
        for statement in block.statements:
            if self.builder.block.terminator is not None:
                # Dead code after return/break: emit into a detached block so
                # the structure stays legal; simplify-cfg deletes it.
                self.builder.position_at_end(self._new_block("dead"))
            self._emit_statement(statement)

    def _emit_statement(self, statement):
        if isinstance(statement, ast.Block):
            self._emit_block(statement)
        elif isinstance(statement, ast.VarDecl):
            self._emit_var_decl(statement)
        elif isinstance(statement, ast.Assign):
            value = self._emit_expr(statement.value)
            address = self._emit_lvalue(statement.target)
            self.builder.store(
                self._convert(value, address.type.pointee), address
            )
        elif isinstance(statement, ast.ExprStatement):
            self._emit_expr(statement.expression)
        elif isinstance(statement, ast.If):
            self._emit_if(statement)
        elif isinstance(statement, ast.While):
            self._emit_while(statement)
        elif isinstance(statement, ast.For):
            self._emit_for(statement)
        elif isinstance(statement, ast.Return):
            if statement.value is None:
                self.builder.ret()
            else:
                value = self._emit_expr(statement.value)
                self.builder.ret(
                    self._convert(value, self.function.function_type.return_type)
                )
        elif isinstance(statement, ast.Break):
            self.builder.br(self.loop_stack[-1].break_block)
        elif isinstance(statement, ast.Continue):
            self.builder.br(self.loop_stack[-1].continue_block)
        else:
            raise SemanticError(f"codegen: unknown statement {statement!r}")

    def _emit_var_decl(self, statement):
        base = I32 if statement.base_type == "int" else F64
        if statement.array_size is not None:
            from ..ir.types import ArrayType

            slot = self.builder.alloca(
                ArrayType(base, statement.array_size), statement.name
            )
        else:
            slot = self.builder.alloca(base, statement.name)
            if statement.initializer is not None:
                value = self._emit_expr(statement.initializer)
                self.builder.store(self._convert(value, base), slot)
        self._bind(statement, slot)

    def _emit_if(self, statement):
        then_block = self._new_block("if.then")
        end_block = self._new_block("if.end")
        else_block = (
            self._new_block("if.else") if statement.else_body is not None else end_block
        )
        condition = self._emit_bool(statement.condition)
        self.builder.condbr(condition, then_block, else_block)
        self.builder.position_at_end(then_block)
        self._emit_statement(statement.then_body)
        if self.builder.block.terminator is None:
            self.builder.br(end_block)
        if statement.else_body is not None:
            self.builder.position_at_end(else_block)
            self._emit_statement(statement.else_body)
            if self.builder.block.terminator is None:
                self.builder.br(end_block)
        self.builder.position_at_end(end_block)

    def _emit_while(self, statement):
        header = self._new_block("while.cond")
        body = self._new_block("while.body")
        end = self._new_block("while.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        condition = self._emit_bool(statement.condition)
        self.builder.condbr(condition, body, end)
        self.builder.position_at_end(body)
        self.loop_stack.append(_LoopTargets(end, header))
        self._emit_statement(statement.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(header)
        self.builder.position_at_end(end)

    def _emit_for(self, statement):
        if statement.init is not None:
            self._emit_statement(statement.init)
        header = self._new_block("for.cond")
        body = self._new_block("for.body")
        step = self._new_block("for.step")
        end = self._new_block("for.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        if statement.condition is not None:
            condition = self._emit_bool(statement.condition)
            self.builder.condbr(condition, body, end)
        else:
            self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append(_LoopTargets(end, step))
        self._emit_statement(statement.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(step)
        self.builder.position_at_end(step)
        if statement.step is not None:
            self._emit_statement(statement.step)
        self.builder.br(header)
        self.builder.position_at_end(end)

    # -- expressions ---------------------------------------------------------------

    def _emit_expr(self, node):
        """Emit ``node`` and return its IR value (per its annotated type)."""
        if isinstance(node, ast.IntLiteral):
            return ConstantInt(I32, node.value)
        if isinstance(node, ast.FloatLiteral):
            return ConstantFloat(node.value)
        if isinstance(node, ast.Identifier):
            address = self._address_of_symbol(node)
            if node.ty.is_array:
                return address  # arrays denote their address; decay at use
            return self.builder.load(address, node.name)
        if isinstance(node, ast.Index):
            address = self._emit_lvalue(node)
            if node.ty.is_array:
                return address
            return self.builder.load(address)
        if isinstance(node, ast.Call):
            return self._emit_call(node)
        if isinstance(node, ast.Unary):
            return self._emit_unary(node)
        if isinstance(node, ast.Binary):
            return self._emit_binary(node)
        if isinstance(node, ast.CastExpr):
            value = self._emit_expr(node.operand)
            target = I32 if node.target == "int" else F64
            return self._convert(value, target, explicit=True)
        raise SemanticError(f"codegen: unknown expression {node!r}")

    def _emit_call(self, node):
        callee = self.module.get_function(node.name)
        arguments = []
        for argument, expected in zip(node.args, callee.function_type.param_types):
            value = self._emit_expr(argument)
            if expected.is_pointer and value.type.is_pointer and value.type.pointee.is_array:
                value = self.builder.gep(value, [ConstantInt(I32, 0)])
            arguments.append(self._convert(value, expected))
        return self.builder.call(callee, arguments, node.name)

    def _emit_unary(self, node):
        if node.op == "&":
            return self._emit_lvalue(node.operand)
        if node.op == "-":
            value = self._emit_expr(node.operand)
            if value.type.is_float:
                return self.builder.fsub(ConstantFloat(0.0), value)
            return self.builder.sub(ConstantInt(value.type, 0), value)
        if node.op == "!":
            flag = self._emit_bool(node.operand)
            inverted = self.builder.xor(flag, ConstantInt(I1, 1))
            return self.builder.cast("zext", inverted, I32)
        raise SemanticError(f"codegen: unknown unary {node.op!r}")

    def _emit_binary(self, node):
        op = node.op
        if op in ("&&", "||"):
            flag = self._emit_bool(node)
            return self.builder.cast("zext", flag, I32)
        if op in _COMPARE_INT:
            flag = self._emit_comparison(node)
            return self.builder.cast("zext", flag, I32)
        lhs = self._emit_expr(node.lhs)
        rhs = self._emit_expr(node.rhs)
        if node.ty is F64:
            lhs = self._convert(lhs, F64)
            rhs = self._convert(rhs, F64)
            return self.builder.binop(_ARITH_FLOAT[op], lhs, rhs)
        return self.builder.binop(_ARITH_INT[op], lhs, rhs)

    def _emit_comparison(self, node):
        lhs = self._emit_expr(node.lhs)
        rhs = self._emit_expr(node.rhs)
        if lhs.type.is_float or rhs.type.is_float:
            lhs = self._convert(lhs, F64)
            rhs = self._convert(rhs, F64)
            return self.builder.fcmp(_COMPARE_FLOAT[node.op], lhs, rhs)
        return self.builder.icmp(_COMPARE_INT[node.op], lhs, rhs)

    def _emit_bool(self, node):
        """Emit ``node`` as an ``i1`` (conditions, logical operators)."""
        if isinstance(node, ast.Binary) and node.op in _COMPARE_INT:
            return self._emit_comparison(node)
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            # Short-circuit through a temporary slot; mem2reg turns it into
            # a phi.
            slot = self.builder.alloca(I1, "sc")
            rhs_block = self._new_block("sc.rhs")
            end_block = self._new_block("sc.end")
            lhs = self._emit_bool(node.lhs)
            if node.op == "&&":
                self.builder.store(ConstantInt(I1, 0), slot)
                self.builder.condbr(lhs, rhs_block, end_block)
            else:
                self.builder.store(ConstantInt(I1, 1), slot)
                self.builder.condbr(lhs, end_block, rhs_block)
            self.builder.position_at_end(rhs_block)
            rhs = self._emit_bool(node.rhs)
            self.builder.store(rhs, slot)
            self.builder.br(end_block)
            self.builder.position_at_end(end_block)
            return self.builder.load(slot)
        if isinstance(node, ast.Unary) and node.op == "!":
            flag = self._emit_bool(node.operand)
            return self.builder.xor(flag, ConstantInt(I1, 1))
        value = self._emit_expr(node)
        return self.builder.icmp("ne", value, ConstantInt(I32, 0))

    # -- lvalues & conversions ----------------------------------------------------

    def _address_of_symbol(self, node):
        symbol = node.symbol
        if symbol.kind == "global":
            return self.module.get_global(symbol.name)
        address = self.addresses.get(id(symbol))
        if address is None:
            raise SemanticError(
                f"codegen: no storage bound for {symbol.name!r}", node.line
            )
        return address

    def _emit_lvalue(self, node):
        if isinstance(node, ast.Identifier):
            return self._address_of_symbol(node)
        if isinstance(node, ast.Index):
            base_type = node.base.ty
            if base_type.is_pointer:
                pointer = self._emit_expr(node.base)  # loads the pointer value
            else:
                pointer = self._emit_lvalue(node.base)
            index = self._emit_expr(node.index)
            return self.builder.gep(pointer, [index])
        raise SemanticError(f"codegen: not an lvalue: {node!r}", node.line)

    def _convert(self, value, target, explicit=False):
        if value.type is target:
            return value
        if value.type is I1 and target is I32:
            return self.builder.cast("zext", value, I32)
        if value.type is I32 and target is F64:
            return self.builder.sitofp(value)
        if value.type is F64 and target is I32 and explicit:
            return self.builder.fptosi(value, I32)
        raise SemanticError(
            f"codegen: cannot convert {value.type!r} to {target!r}"
        )


def compile_source(source, module_name="program", optimize=True,
                   verify_each=False, inline=False, transform=False):
    """Compile MiniC source to an IR module.

    With ``optimize`` (the default) the standard pass pipeline runs, leaving
    the module in the canonical form the Loopapalooza compile-time component
    expects. ``inline`` additionally runs the (non-default) function inliner
    first — used by the inlining ablation, not by the study itself.
    ``transform`` opts the pipeline into the structural loop stage
    (fission/peel/fusion).
    """
    program = parse(source)
    sema_result = analyze(program)
    module = CodeGenerator(sema_result, module_name).run()
    from ..ir.verifier import verify_module

    verify_module(module)
    if inline:
        from ..passes.inline import run_inline_module

        run_inline_module(module)
        verify_module(module)
    if optimize:
        from ..passes.pass_manager import run_standard_pipeline

        run_standard_pipeline(module, verify_each=verify_each,
                              transform=transform)
    return module
