"""Headless demonstration classes and the synthetic event pump.

Every class here is state plus behavior only; "rendering" is a no-op.  The
scene of a picture can be dumped as text (one line per displayed graphical)
for golden tests and the CLI.  The event taxonomy is the fixed tree

    any -> area -> {area_enter, area_exit}
        -> button -> {button_down, button_up}
        -> keyboard

and `is_a` walks it reflexively and transitively.
"""

from __future__ import annotations

from typing import Optional, Union

from .balls import bridge_error, domain_error
from .kernel import (
    ANY_T,
    ATOM_T,
    INT_T,
    InstanceOf,
    KMethod,
    KObject,
    NativeImpl,
    NilOr,
    SlotDef,
)
from .terms import Atom, ObjRef, Struct, Term, Var, deref

EVENT_PARENT = {
    "any": None,
    "area": "any",
    "area_enter": "area",
    "area_exit": "area",
    "button": "any",
    "button_down": "button",
    "button_up": "button",
    "keyboard": "any",
}


def event_is_a(kind: str, ancestor: str) -> bool:
    k: Optional[str] = kind
    while k is not None:
        if k == ancestor:
            return True
        k = EVENT_PARENT.get(k)
    return False


class ChainObject(KObject):
    """Ordered container of values; elements are retained while stored."""

    __slots__ = ("elements",)

    def __init__(self, oid, kclass):
        super().__init__(oid, kclass)
        self.elements: list = []

    def extra_refs(self):
        return tuple(v for v in self.elements if isinstance(v, KObject))

    def append(self, kernel, v) -> None:
        """Store `v` last, retaining it while stored when it is an object."""
        self.elements.append(v)
        if isinstance(v, KObject):
            kernel.retain(v)

    def on_destroy(self, kernel) -> None:
        self.elements = []


def install(rt) -> None:
    kernel = rt.kernel

    def native(cls, selector, argspecs=(), required=None, vararg=None, fn=None,
               kind="send", returns=ANY_T):
        kernel.define_method(cls, KMethod(selector, kind, argspecs, required=required,
                                          vararg=vararg, returns=returns,
                                          impl=NativeImpl(fn)))

    def new_owned(owner, slot, class_name, values):
        """Create a sub-object living in one of the owner's slots."""
        obj = kernel.instantiate(kernel.find_class(class_name), values)
        kernel.slot_set(owner, slot, obj)
        kernel.release(obj)
        return obj

    # -- basic geometry and fill ------------------------------------------

    point = kernel.define_class("point", "object")
    kernel.define_slot(point, SlotDef("x", INT_T))
    kernel.define_slot(point, SlotDef("y", INT_T))

    def point_init(rt, obj, vals):
        obj.slots["x"] = vals[0] if len(vals) > 0 else 0
        obj.slots["y"] = vals[1] if len(vals) > 1 else 0
        return True

    native(point, "initialise", (INT_T, INT_T), required=0, fn=point_init)

    area = kernel.define_class("area", "object")
    for s in ("x", "y", "w", "h"):
        kernel.define_slot(area, SlotDef(s, INT_T))

    def area_init(rt, obj, vals):
        for name, v in zip(("x", "y", "w", "h"), list(vals) + [0] * (4 - len(vals))):
            obj.slots[name] = v
        return True

    def area_normalise(rt, obj, vals):
        # fold negative extents into the origin
        if obj.slots["w"] < 0:
            obj.slots["x"] += obj.slots["w"]
            obj.slots["w"] = -obj.slots["w"]
        if obj.slots["h"] < 0:
            obj.slots["y"] += obj.slots["h"]
            obj.slots["h"] = -obj.slots["h"]
        return True

    native(area, "initialise", (INT_T, INT_T, INT_T, INT_T), required=0, fn=area_init)
    native(area, "normalise", (), fn=area_normalise)

    colour = kernel.define_class("colour", "object")
    kernel.define_slot(colour, SlotDef("name", ATOM_T, "get"))

    def colour_init(rt, obj, vals):
        obj.slots["name"] = vals[0]
        return True

    native(colour, "initialise", (ATOM_T,), fn=colour_init)

    # -- graphicals ---------------------------------------------------------

    graphical = kernel.define_class("graphical", "object")
    kernel.define_slot(graphical, SlotDef("position", NilOr(InstanceOf("point"))))

    # default event handling: accept and do nothing
    native(graphical, "event", (InstanceOf("event"),), fn=lambda rt, o, v: True)

    box = kernel.define_class("box", "graphical")
    kernel.define_slot(box, SlotDef("width", INT_T, "get"))
    kernel.define_slot(box, SlotDef("height", INT_T, "get"))
    kernel.define_slot(box, SlotDef("fill_pattern", NilOr(InstanceOf("colour"))))

    def check_extent(selector, v):
        if v < 0:
            raise bridge_error("type_mismatch",
                               Struct("context", (Atom(selector), 1,
                                                  Atom("non_negative_int"), v)))
        return v

    def box_init(rt, obj, vals):
        obj.slots["width"] = check_extent("width", vals[0])
        obj.slots["height"] = check_extent("height", vals[1])
        return True

    def box_set(slot):
        def fn(rt, obj, vals):
            obj.slots[slot] = check_extent(slot, vals[0])
            return True

        return fn

    native(box, "initialise", (INT_T, INT_T), fn=box_init)
    native(box, "width", (INT_T,), fn=box_set("width"))
    native(box, "height", (INT_T,), fn=box_set("height"))

    text = kernel.define_class("text", "graphical")
    kernel.define_slot(text, SlotDef("string", ATOM_T))

    def text_init(rt, obj, vals):
        obj.slots["string"] = vals[0]
        return True

    native(text, "initialise", (ATOM_T,), fn=text_init)

    # -- containers -----------------------------------------------------------

    chain = kernel.define_class("chain", "object", factory=ChainObject)

    def chain_init(rt, obj, vals):
        for v in vals:
            obj.append(kernel, v)
        return True

    def chain_append(rt, obj, vals):
        obj.append(kernel, vals[0])
        return True

    def chain_clear(rt, obj, vals):
        old = obj.elements
        obj.elements = []
        for v in old:
            if isinstance(v, KObject):
                kernel.release(v)
        return True

    native(chain, "initialise", (), vararg=ANY_T, fn=chain_init)
    native(chain, "append", (ANY_T,), fn=chain_append)
    native(chain, "clear", (), fn=chain_clear)
    native(chain, "size", (), kind="get", returns=INT_T,
           fn=lambda rt, o, v: len(o.elements))

    picture = kernel.define_class("picture", "object")
    kernel.define_slot(picture, SlotDef("visible", InstanceOf("area"), "get"))
    kernel.define_slot(picture, SlotDef("contents", InstanceOf("chain"), "get"))

    def picture_init(rt, obj, vals):
        # the visible area of a fresh picture starts at the origin
        new_owned(obj, "visible", "area", [0, 0, 640, 480])
        new_owned(obj, "contents", "chain", [])
        return True

    def picture_display(rt, obj, vals):
        g = vals[0]
        contents = obj.slots["contents"]
        if g not in contents.elements:
            contents.append(kernel, g)
        if len(vals) > 1:
            kernel.slot_set(g, "position", vals[1])
        else:
            new_owned(g, "position", "point", [0, 0])
        return True

    native(picture, "initialise", (), fn=picture_init)
    native(picture, "display", (InstanceOf("graphical"), InstanceOf("point")),
           required=1, fn=picture_display)

    # -- trees ------------------------------------------------------------------

    node = kernel.define_class("node", "graphical")
    kernel.define_slot(node, SlotDef("label", NilOr(InstanceOf("text")), "get"))
    kernel.define_slot(node, SlotDef("sons", InstanceOf("chain"), "get"))

    def node_init(rt, obj, vals):
        kernel.slot_set(obj, "label", vals[0])
        new_owned(obj, "sons", "chain", [])
        return True

    def node_son(rt, obj, vals):
        obj.slots["sons"].append(kernel, vals[0])
        return True

    native(node, "initialise", (InstanceOf("text"),), fn=node_init)
    native(node, "son", (InstanceOf("node"),), fn=node_son)

    # -- events -------------------------------------------------------------------

    event = kernel.define_class("event", "object")
    kernel.define_slot(event, SlotDef("kind", ATOM_T, "get"))
    kernel.define_slot(event, SlotDef("x", INT_T, "get"))
    kernel.define_slot(event, SlotDef("y", INT_T, "get"))

    def event_init(rt, obj, vals):
        kind = vals[0]
        if kind.name not in EVENT_PARENT:
            raise domain_error("event_kind", kind)
        obj.slots["kind"] = kind
        obj.slots["x"] = vals[1] if len(vals) > 1 else 0
        obj.slots["y"] = vals[2] if len(vals) > 2 else 0
        return True

    def event_isa(rt, obj, vals):
        return event_is_a(obj.slots["kind"].name, vals[0].name)

    native(event, "initialise", (ATOM_T, INT_T, INT_T), required=1, fn=event_init)
    native(event, "is_a", (ATOM_T,), fn=event_isa)

    # -- messages and buttons ----------------------------------------------------

    message = kernel.define_class("message", "object")
    kernel.define_slot(message, SlotDef("receiver", ANY_T, "get"))
    kernel.define_slot(message, SlotDef("selector", ATOM_T, "get"))
    kernel.define_slot(message, SlotDef("args", InstanceOf("chain"), "get"))

    def message_init(rt, obj, vals):
        kernel.slot_set(obj, "receiver", vals[0])
        obj.slots["selector"] = vals[1]
        new_owned(obj, "args", "chain", list(vals[2:]))
        return True

    def message_execute(rt, obj, vals):
        recv = obj.slots["receiver"]
        if not isinstance(recv, KObject):
            raise bridge_error("type_mismatch",
                               Struct("context", (Atom("execute"), Atom("receiver"))))
        selector = obj.slots["selector"].name
        args = list(obj.slots["args"].elements) + list(vals)
        return kernel.send_value(recv, selector, args)

    native(message, "initialise", (ANY_T, ATOM_T), vararg=ANY_T, fn=message_init)
    native(message, "execute", (), vararg=ANY_T, fn=message_execute)

    button = kernel.define_class("button", "graphical")
    kernel.define_slot(button, SlotDef("label", ATOM_T))
    kernel.define_slot(button, SlotDef("message", NilOr(InstanceOf("message"))))

    def button_init(rt, obj, vals):
        obj.slots["label"] = vals[0]
        if len(vals) > 1:
            kernel.slot_set(obj, "message", vals[1])
        return True

    def button_event(rt, obj, vals):
        ev = vals[0]
        if event_is_a(ev.slots["kind"].name, "button_down"):
            msg = obj.slots["message"]
            if msg is not kernel.nil:
                return kernel.send_value(msg, "execute", [])
        return True

    native(button, "initialise", (ATOM_T, InstanceOf("message")), required=1,
           fn=button_init)
    native(button, "event", (InstanceOf("event"),), fn=button_event)

    rt.engine.register_builtin("pump_event", 4, _bi_pump_event)


# -- driver-facing operations -----------------------------------------------------


def _bi_pump_event(m, args, ns):
    rt = m.engine.rt
    obj = rt.bridge.deref_obj(args[0], "pump_event")
    kind, x, y = (deref(a) for a in args[1:])
    if Var in (type(kind), type(x), type(y)):
        raise bridge_error("instantiation", Atom("pump_event"))
    if type(kind) is not Atom:
        raise bridge_error("type_mismatch", Atom("pump_event"), Atom("event_kind"), kind)
    return pump_event(rt, obj, kind.name, x, y)


def pump_event(rt, target: Union[ObjRef, KObject], kind: str, x: int = 0,
               y: int = 0) -> bool:
    """Deliver a synthetic event: constructs an event object and sends it
    as `event` to the target.  The event dies after the call unless stored."""
    if kind not in EVENT_PARENT:
        raise domain_error("event_kind", Atom(kind))
    kernel = rt.kernel
    obj = target if isinstance(target, KObject) else kernel.fetch(target.ref, "pump_event")
    with rt.hostdata.bridge_call():
        ev = kernel.instantiate(kernel.find_class("event"), [Atom(kind), x, y])
        rt.hostdata.register_transient(ev)
        return kernel.send_value(obj, "event", [ev])


class EventPump:
    """A queue of pending (target, event description) pairs, the synthetic
    stand-in for a windowing system's input source.  Events are delivered
    strictly FIFO, each as a `send(target, event, Ev)`."""

    def __init__(self, rt):
        self.rt = rt
        self.queue: list = []

    def post(self, target: Union[ObjRef, KObject], kind: str, x: int = 0,
             y: int = 0) -> None:
        if kind not in EVENT_PARENT:
            raise domain_error("event_kind", Atom(kind))
        self.queue.append((target, kind, x, y))

    def flush(self) -> list:
        """Dispatch every queued event in order; returns their outcomes."""
        out = []
        while self.queue:
            target, kind, x, y = self.queue.pop(0)
            out.append(pump_event(self.rt, target, kind, x, y))
        return out


def scene_dump(rt, picture: Union[ObjRef, KObject]) -> str:
    """One line per displayed graphical: `class@id pos=(x,y) fill=<name|nil>`."""
    kernel = rt.kernel
    pic = picture if isinstance(picture, KObject) else kernel.fetch(picture.ref, "scene")
    lines = []
    for g in pic.slots["contents"].elements:
        pos = g.slots.get("position")
        if isinstance(pos, KObject) and pos is not kernel.nil:
            x, y = pos.slots["x"], pos.slots["y"]
        else:
            x, y = 0, 0
        fill = g.slots.get("fill_pattern")
        if isinstance(fill, KObject) and fill is not kernel.nil:
            fname = fill.slots["name"].name
        else:
            fname = "nil"
        lines.append(f"{g.kclass.name}@{g.oid} pos=({x},{y}) fill={fname}")
    return "\n".join(lines)


def build_tree(rt, spec: Term) -> Optional[KObject]:
    """Build a my_node tree from a node(Name, Data, Sons) term; None when
    construction fails (no partial tree survives)."""
    return rt.bridge.new_from_spec(Struct("my_node", (spec,)))
