% Call-shape loops: each iteration of a tail loop makes one send/2 from
% logic code.  cs_logic is a classic logic-defined class (each send runs
% the method in a nested solve); cs_pure marks its method pce_pure_prolog,
% so its send is pushed into the calling machine.

:- pce_begin_class(cs_logic, object).

noarg(_B) :->
        true.

intarg(_B, _Value:int) :->
        true.

termarg(_B, _Value:prolog) :->
        true.

:- pce_end_class(cs_logic).

:- pce_begin_class(cs_pure, object).

:- pce_pure_prolog(noarg).

noarg(_B) :->
        true.

:- pce_end_class(cs_pure).

cs_empty(0) :- !.
cs_empty(N) :- N > 0, N1 is N - 1, cs_empty(N1).

cs_normalise(0, _) :- !.
cs_normalise(N, O) :- N > 0, send(O, normalise), N1 is N - 1, cs_normalise(N1, O).

cs_x(0, _) :- !.
cs_x(N, O) :- N > 0, send(O, x(1)), N1 is N - 1, cs_x(N1, O).

cs_noarg(0, _) :- !.
cs_noarg(N, O) :- N > 0, send(O, noarg), N1 is N - 1, cs_noarg(N1, O).

cs_intarg(0, _) :- !.
cs_intarg(N, O) :- N > 0, send(O, intarg(1)), N1 is N - 1, cs_intarg(N1, O).

cs_termarg(0, _) :- !.
cs_termarg(N, O) :- N > 0, send(O, termarg(hello(world))), N1 is N - 1, cs_termarg(N1, O).
