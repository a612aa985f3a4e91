% Benchmark support: a logic-defined class with three send shapes and one
% get, plus the timing loops driven by the harness.

:- pce_begin_class(bench, object).

noarg(_B) :->
        true.

intarg(_B, _Value:int) :->
        true.

termarg(_B, _Value:prolog) :->
        true.

value(_B, V:int) :<-
        V = 1.

:- pce_end_class(bench).

bench_empty(0) :- !.
bench_empty(N) :- N > 0, N1 is N - 1, bench_empty(N1).

bench_normalise(0, _) :- !.
bench_normalise(N, O) :- N > 0, send(O, normalise), N1 is N - 1, bench_normalise(N1, O).

bench_x(0, _) :- !.
bench_x(N, O) :- N > 0, send(O, x, 1), N1 is N - 1, bench_x(N1, O).

bench_noarg(0, _) :- !.
bench_noarg(N, O) :- N > 0, send(O, noarg), N1 is N - 1, bench_noarg(N1, O).

bench_intarg(0, _) :- !.
bench_intarg(N, O) :- N > 0, send(O, intarg, 1), N1 is N - 1, bench_intarg(N1, O).

bench_termarg(0, _) :- !.
bench_termarg(N, O) :- N > 0, send(O, termarg, hello(world)), N1 is N - 1, bench_termarg(N1, O).

bench_get(0, _) :- !.
bench_get(N, O) :- N > 0, get(O, value, _), N1 is N - 1, bench_get(N1, O).
