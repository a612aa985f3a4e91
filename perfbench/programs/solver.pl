% Pure logic, no objects: naive reverse (496 logical inferences for a
% 30-element list) and 8-queens by incremental placement.

nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).

app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

queens(N, Qs) :- numlist(1, N, Ns), place(Ns, [], Qs).

numlist(L, H, []) :- L > H, !.
numlist(L, H, [L|T]) :- L1 is L + 1, numlist(L1, H, T).

place([], Qs, Qs).
place(Unplaced, Safe, Qs) :-
        sel(Q, Unplaced, Rest),
        no_attack(Q, Safe, 1),
        place(Rest, [Q|Safe], Qs).

sel(X, [X|T], T).
sel(X, [H|T], [H|R]) :- sel(X, T, R).

no_attack(_, [], _).
no_attack(Q, [Q1|Qs], D) :-
        Q =\= Q1 + D,
        Q =\= Q1 - D,
        D1 is D + 1,
        no_attack(Q, Qs, D1).
