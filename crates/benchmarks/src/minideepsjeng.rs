//! `531.deepsjeng_r` stand-in: a chess engine performing α–β tree search.
//!
//! Implements a 0x88-board chess engine: pseudo-legal move generation
//! with legality filtering, material + piece-square evaluation, negamax
//! α–β search with a transposition table and MVV-LVA move ordering, and a
//! capture-only quiescence search. Move generation is validated against
//! the standard perft node counts.
//!
//! Simplifications relative to full chess (documented substitutions):
//! castling and en passant are omitted and promotion is always to a
//! queen. Workload positions are derived by playing seeded random legal
//! moves from the initial position, so they are legal by construction —
//! the role the Arasan test-suite positions play in the paper.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::chess::{self, ChessWorkload, PositionSpec};
use alberta_workloads::{Named, Scale};

const BOARD_REGION: u64 = 0x6000_0000;
const TT_REGION: u64 = 0x7000_0000;

/// Piece codes; positive = white, negative = black, 0 = empty.
pub mod piece {
    /// Pawn.
    pub const PAWN: i8 = 1;
    /// Knight.
    pub const KNIGHT: i8 = 2;
    /// Bishop.
    pub const BISHOP: i8 = 3;
    /// Rook.
    pub const ROOK: i8 = 4;
    /// Queen.
    pub const QUEEN: i8 = 5;
    /// King.
    pub const KING: i8 = 6;
}

const KNIGHT_D: [i16; 8] = [14, 18, 31, 33, -14, -18, -31, -33];
const KING_D: [i16; 8] = [1, -1, 16, -16, 15, 17, -15, -17];
const BISHOP_D: [i16; 4] = [15, 17, -15, -17];
const ROOK_D: [i16; 4] = [1, -1, 16, -16];

/// The top bit of every byte.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The top bit of every nonzero byte of `word`: the low seven bits carry
/// into it unless they are all clear.
fn occupied(word: u64) -> u64 {
    const LOW_BITS: u64 = !HIGH_BITS;
    (((word & LOW_BITS) + LOW_BITS) | word) & HIGH_BITS
}

/// A chess position on a 0x88 board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    /// 128-cell 0x88 board.
    pub squares: [i8; 128],
    /// Side to move: 1 = white, -1 = black.
    pub side: i8,
    /// Cached king squares: `[white, black]`. Kept in sync by
    /// [`Board::make`]/[`Board::unmake`]; may briefly point at a captured
    /// king inside pseudo-legal lines, which [`Board::in_check`] detects.
    kings: [u8; 2],
}

/// A move: from/to 0x88 indices plus the captured piece for unmake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    from: u8,
    to: u8,
    captured: i8,
    promotion: bool,
}

impl Board {
    /// The initial chess position.
    pub fn initial() -> Self {
        use piece::*;
        let mut squares = [0i8; 128];
        let back = [ROOK, KNIGHT, BISHOP, QUEEN, KING, BISHOP, KNIGHT, ROOK];
        for (f, &p) in back.iter().enumerate() {
            squares[f] = p; // white back rank (rank 0)
            squares[0x10 + f] = PAWN;
            squares[0x60 + f] = -PAWN;
            squares[0x70 + f] = -p;
        }
        Board {
            squares,
            side: 1,
            kings: [0x04, 0x74],
        }
    }

    fn on_board(sq: i16) -> bool {
        sq & 0x88 == 0 && sq >= 0
    }

    /// The eight squares of `rank` as one little-endian word, file 0 in
    /// the low byte.
    fn rank_word(&self, rank: u8) -> u64 {
        let start = rank as usize * 16;
        let files: [i8; 8] = self.squares[start..start + 8].try_into().expect("8 files");
        u64::from_le_bytes(files.map(|p| p as u8))
    }

    /// The 0x88 squares of `rank` whose byte has its top bit set in
    /// `mask`, in file order.
    fn marked_squares(rank: u8, mut mask: u64) -> impl Iterator<Item = u8> {
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let file = mask.trailing_zeros() as u8 / 8;
                mask &= mask - 1;
                rank * 16 + file
            })
        })
    }

    /// Generates pseudo-legal moves (may leave own king in check).
    pub fn pseudo_moves(&self, out: &mut Vec<Move>) {
        out.clear();
        for rank in 0..8u8 {
            let word = self.rank_word(rank);
            let own = if self.side == 1 {
                occupied(word) & !word
            } else {
                word & HIGH_BITS
            };
            for from in Board::marked_squares(rank, own) {
                self.piece_moves(from, out);
            }
        }
    }

    /// Pseudo-legal moves of the side-to-move piece on `from`.
    fn piece_moves(&self, from: u8, out: &mut Vec<Move>) {
        use piece::*;
        match self.squares[from as usize].abs() {
            PAWN => {
                let dir: i16 = if self.side == 1 { 16 } else { -16 };
                let fwd = from as i16 + dir;
                if Board::on_board(fwd) && self.squares[fwd as usize] == 0 {
                    out.push(self.mk(from, fwd as u8));
                    // Double push from the home rank.
                    let home = if self.side == 1 { 1 } else { 6 };
                    let fwd2 = fwd + dir;
                    if (from >> 4) == home
                        && Board::on_board(fwd2)
                        && self.squares[fwd2 as usize] == 0
                    {
                        out.push(self.mk(from, fwd2 as u8));
                    }
                }
                for dd in [dir - 1, dir + 1] {
                    let t = from as i16 + dd;
                    if Board::on_board(t) {
                        let q = self.squares[t as usize];
                        if q != 0 && q.signum() != self.side {
                            out.push(self.mk(from, t as u8));
                        }
                    }
                }
            }
            KNIGHT => self.step_moves(from, &KNIGHT_D, out),
            KING => self.step_moves(from, &KING_D, out),
            BISHOP => self.slide_moves(from, &BISHOP_D, out),
            ROOK => self.slide_moves(from, &ROOK_D, out),
            QUEEN => {
                self.slide_moves(from, &BISHOP_D, out);
                self.slide_moves(from, &ROOK_D, out);
            }
            _ => unreachable!("invalid piece code"),
        }
    }

    fn mk(&self, from: u8, to: u8) -> Move {
        let promotion =
            self.squares[from as usize].abs() == piece::PAWN && matches!(to >> 4, 0 | 7);
        Move {
            from,
            to,
            captured: self.squares[to as usize],
            promotion,
        }
    }

    fn step_moves(&self, from: u8, deltas: &[i16], out: &mut Vec<Move>) {
        for &d in deltas {
            let t = from as i16 + d;
            if Board::on_board(t) {
                let q = self.squares[t as usize];
                if q == 0 || q.signum() != self.side {
                    out.push(self.mk(from, t as u8));
                }
            }
        }
    }

    fn slide_moves(&self, from: u8, deltas: &[i16], out: &mut Vec<Move>) {
        for &d in deltas {
            let mut t = from as i16 + d;
            while Board::on_board(t) {
                let q = self.squares[t as usize];
                if q == 0 {
                    out.push(self.mk(from, t as u8));
                } else {
                    if q.signum() != self.side {
                        out.push(self.mk(from, t as u8));
                    }
                    break;
                }
                t += d;
            }
        }
    }

    fn king_index(side: i8) -> usize {
        if side == 1 {
            0
        } else {
            1
        }
    }

    /// Applies a move.
    pub fn make(&mut self, m: Move) {
        let mut p = self.squares[m.from as usize];
        if m.promotion {
            p = piece::QUEEN * p.signum();
        }
        if p.abs() == piece::KING {
            self.kings[Board::king_index(p.signum())] = m.to;
        }
        self.squares[m.to as usize] = p;
        self.squares[m.from as usize] = 0;
        self.side = -self.side;
    }

    /// Reverts a move made by [`Board::make`].
    pub fn unmake(&mut self, m: Move) {
        let mut p = self.squares[m.to as usize];
        if m.promotion {
            p = piece::PAWN * p.signum();
        }
        if p.abs() == piece::KING {
            self.kings[Board::king_index(p.signum())] = m.from;
        }
        self.squares[m.from as usize] = p;
        self.squares[m.to as usize] = m.captured;
        self.side = -self.side;
    }

    /// Whether `side`'s king is attacked.
    pub fn in_check(&self, side: i8) -> bool {
        use piece::*;
        let cached = self.kings[Board::king_index(side)] as usize;
        if self.squares[cached] != KING * side {
            return true; // king captured in a pseudo-legal line
        }
        let ks = cached as i16;
        // Knights.
        for d in KNIGHT_D {
            let t = ks + d;
            if Board::on_board(t) && self.squares[t as usize] == -side * KNIGHT {
                return true;
            }
        }
        // Sliders and king adjacency.
        for (deltas, slider) in [(BISHOP_D, BISHOP), (ROOK_D, ROOK)] {
            for d in deltas {
                let mut t = ks + d;
                let mut first = true;
                while Board::on_board(t) {
                    let q = self.squares[t as usize];
                    if q != 0 {
                        if q.signum() == -side {
                            let a = q.abs();
                            if a == slider || a == QUEEN || (first && a == KING) {
                                return true;
                            }
                        }
                        break;
                    }
                    t += d;
                    first = false;
                }
            }
        }
        // Pawns.
        let dir: i16 = if side == 1 { 16 } else { -16 };
        for dd in [dir - 1, dir + 1] {
            let t = ks + dd;
            if Board::on_board(t) && self.squares[t as usize] == -side * PAWN {
                return true;
            }
        }
        false
    }

    /// Own pieces that shield `side`'s king from an enemy slider: the
    /// first piece on a king ray when the next piece along it is an enemy
    /// bishop/queen (diagonal) or rook/queen (orthogonal). One bit per
    /// 0x88 square.
    fn pinned(&self, side: i8) -> u128 {
        use piece::*;
        let ks = self.kings[Board::king_index(side)] as i16;
        let mut pinned = 0u128;
        for (deltas, slider) in [(BISHOP_D, BISHOP), (ROOK_D, ROOK)] {
            for d in deltas {
                let mut shield = None;
                let mut t = ks + d;
                while Board::on_board(t) {
                    let q = self.squares[t as usize];
                    if q != 0 {
                        if q.signum() != side {
                            if let Some(s) = shield {
                                if q.abs() == slider || q.abs() == QUEEN {
                                    pinned |= 1u128 << s;
                                }
                            }
                            break;
                        }
                        if shield.is_some() {
                            break;
                        }
                        shield = Some(t);
                    }
                    t += d;
                }
            }
        }
        pinned
    }

    /// Generates fully legal moves, in pseudo-move order.
    ///
    /// Only three kinds of pseudo-move can leave the mover's king
    /// attacked: king moves, any move made while in check, and moves of
    /// a pinned piece (see [`Board::pinned`]). Those take the
    /// make/[`in_check`](Board::in_check)/unmake test. Every other move is
    /// legal by construction: with the king not in check, moving a piece
    /// that shields it from no slider can only block or capture
    /// attackers, never expose the king.
    pub fn legal_moves(&mut self) -> Vec<Move> {
        let mut moves = Vec::with_capacity(64);
        self.pseudo_moves(&mut moves);
        let side = self.side;
        let king = self.kings[Board::king_index(side)];
        // A captured king reads as "in check", so every move is tested
        // and fails, exactly as the full filter would have it.
        let checked = self.in_check(side);
        let pinned = if checked { 0 } else { self.pinned(side) };
        moves.retain(|&m| {
            if !checked && m.from != king && pinned >> m.from & 1 == 0 {
                return true;
            }
            self.make(m);
            let ok = !self.in_check(side);
            self.unmake(m);
            ok
        });
        moves
    }

    /// The reference legality filter: make/in_check/unmake on every
    /// pseudo-move.
    #[cfg(test)]
    fn legal_moves_naive(&mut self) -> Vec<Move> {
        let mut pseudo = Vec::with_capacity(64);
        self.pseudo_moves(&mut pseudo);
        let side = self.side;
        pseudo
            .into_iter()
            .filter(|&m| {
                self.make(m);
                let ok = !self.in_check(side);
                self.unmake(m);
                ok
            })
            .collect()
    }

    /// Perft node count (for move-generator validation).
    pub fn perft(&mut self, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let moves = self.legal_moves();
        if depth == 1 {
            return moves.len() as u64;
        }
        let mut nodes = 0;
        for m in moves {
            self.make(m);
            nodes += self.perft(depth - 1);
            self.unmake(m);
        }
        nodes
    }

    /// XOR delta that [`Board::make`]`(m)` applies to [`Board::hash`],
    /// read from the position before the move (or after its unmake).
    fn hash_delta(&self, m: Move) -> u64 {
        let p = self.squares[m.from as usize];
        let placed = if m.promotion {
            piece::QUEEN * p.signum()
        } else {
            p
        };
        let mut delta = SIDE_KEY ^ zobrist(p, m.from) ^ zobrist(placed, m.to);
        if m.captured != 0 {
            delta ^= zobrist(m.captured, m.to);
        }
        delta
    }

    /// Zobrist-style hash of the position.
    pub fn hash(&self) -> u64 {
        let mut h = if self.side == 1 { 0x9E37 } else { 0x79B9 };
        for s in 0..128 {
            if s & 0x88 == 0 && self.squares[s] != 0 {
                let code = (self.squares[s] + 6) as u64;
                h ^= splitmix(code * 131 + s as u64);
            }
        }
        h
    }

    /// Derives a position by playing `spec.random_moves` seeded random
    /// legal moves from the initial position (stops early at mate or
    /// stalemate).
    pub fn from_spec(spec: &PositionSpec) -> Board {
        let mut board = Board::initial();
        let mut state = spec.seed;
        for _ in 0..spec.random_moves {
            let moves = board.legal_moves();
            if moves.is_empty() {
                break;
            }
            state = splitmix(state);
            let m = moves[(state % moves.len() as u64) as usize];
            board.make(m);
        }
        board
    }
}

const fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The side-to-move term [`Board::hash`] flips on every move.
const SIDE_KEY: u64 = 0x9E37 ^ 0x79B9;

/// [`Board::hash`]'s per-(piece, square) keys, indexed by `piece + 6`
/// and 0x88 square; evaluated at compile time.
static ZOBRIST: [[u64; 128]; 13] = {
    let mut keys = [[0u64; 128]; 13];
    let mut code = 0;
    while code < 13 {
        let mut s = 0;
        while s < 128 {
            keys[code][s] = splitmix((code * 131 + s) as u64);
            s += 1;
        }
        code += 1;
    }
    keys
};

fn zobrist(p: i8, sq: u8) -> u64 {
    ZOBRIST[(p + 6) as usize][sq as usize]
}

const PIECE_VALUE: [i32; 7] = [0, 100, 320, 330, 500, 900, 20000];

/// Center-weighted piece-square bonus.
const fn square_bonus(sq: usize) -> i32 {
    let file = (sq & 7) as i32;
    let rank = (sq >> 4) as i32;
    let df = min((file - 3).abs(), (file - 4).abs());
    let dr = min((rank - 3).abs(), (rank - 4).abs());
    8 - 2 * (df + dr)
}

const fn min(a: i32, b: i32) -> i32 {
    if a < b {
        a
    } else {
        b
    }
}

/// White-positive material plus square bonus of piece `p` on 0x88 square
/// `sq`, indexed by `p + 6`; evaluated at compile time.
static PIECE_SQUARE: [[i32; 128]; 13] = {
    let mut table = [[0i32; 128]; 13];
    let mut code = 0;
    while code < 13 {
        let p = code as i32 - 6;
        let mut sq = 0;
        while sq < 128 {
            if p != 0 {
                table[code][sq] =
                    (PIECE_VALUE[p.unsigned_abs() as usize] + square_bonus(sq)) * p.signum();
            }
            sq += 1;
        }
        code += 1;
    }
    table
};

struct Engine<'a> {
    board: Board,
    /// `board.hash()`, kept incrementally by [`Engine::make`]/`unmake`.
    hash: u64,
    profiler: &'a mut Profiler,
    fns: Fns,
    tt: Vec<(u64, i32, u32)>, // (hash, score, depth)
    nodes: u64,
}

struct Fns {
    search: FnId,
    quiesce: FnId,
    movegen: FnId,
    evaluate: FnId,
    make_move: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        search: profiler.register_function("deepsjeng::search", 2600),
        quiesce: profiler.register_function("deepsjeng::qsearch", 1200),
        movegen: profiler.register_function("deepsjeng::gen_moves", 1800),
        evaluate: profiler.register_function("deepsjeng::evaluate", 1400),
        make_move: profiler.register_function("deepsjeng::make", 400),
    }
}

const TT_SIZE: usize = 1 << 12;
const MATE: i32 = 100_000;

impl Engine<'_> {
    fn evaluate(&mut self) -> i32 {
        self.profiler.enter(self.fns.evaluate);
        let mut score = 0;
        for rank in 0..8u8 {
            // The board scan reads one cache line per rank; reporting one
            // load per eight squares models that without drowning the
            // profiler in events.
            self.profiler.load(BOARD_REGION + rank as u64 * 16);
            let pieces = occupied(self.board.rank_word(rank));
            for s in Board::marked_squares(rank, pieces) {
                let p = self.board.squares[s as usize];
                score += PIECE_SQUARE[(p + 6) as usize][s as usize];
                self.profiler.retire(2);
            }
        }
        self.profiler.exit();
        score * self.board.side as i32
    }

    fn ordered_moves(&mut self, captures_only: bool) -> Vec<Move> {
        self.profiler.enter(self.fns.movegen);
        let mut moves = self.board.legal_moves();
        self.profiler.retire(moves.len() as u64 * 4);
        for m in &moves {
            self.profiler.load(BOARD_REGION + m.from as u64);
        }
        if captures_only {
            moves.retain(|m| m.captured != 0);
        }
        // MVV-LVA: most valuable victim, least valuable attacker first.
        moves.sort_by_key(|m| {
            let victim = PIECE_VALUE[m.captured.unsigned_abs() as usize];
            let attacker = PIECE_VALUE[self.board.squares[m.from as usize].unsigned_abs() as usize];
            -(victim * 100 - attacker)
        });
        self.profiler.exit();
        moves
    }

    fn quiesce(&mut self, mut alpha: i32, beta: i32) -> i32 {
        self.profiler.enter(self.fns.quiesce);
        self.nodes += 1;
        let stand = self.evaluate();
        if stand >= beta {
            self.profiler.branch(10, true);
            self.profiler.exit();
            return beta;
        }
        self.profiler.branch(10, false);
        alpha = alpha.max(stand);
        for m in self.ordered_moves(true) {
            self.make(m);
            let score = -self.quiesce(-beta, -alpha);
            self.unmake(m);
            let cut = score >= beta;
            self.profiler.branch(11, cut);
            if cut {
                self.profiler.exit();
                return beta;
            }
            alpha = alpha.max(score);
        }
        self.profiler.exit();
        alpha
    }

    fn make(&mut self, m: Move) {
        self.profiler.enter(self.fns.make_move);
        self.profiler.store(BOARD_REGION + m.to as u64);
        self.profiler.store(BOARD_REGION + m.from as u64);
        self.profiler.retire(3);
        self.hash ^= self.board.hash_delta(m);
        self.board.make(m);
        #[cfg(test)]
        assert_eq!(self.hash, self.board.hash(), "hash drifted after make");
        self.profiler.exit();
    }

    fn unmake(&mut self, m: Move) {
        self.board.unmake(m);
        self.hash ^= self.board.hash_delta(m);
        #[cfg(test)]
        assert_eq!(self.hash, self.board.hash(), "hash drifted after unmake");
        self.profiler.retire(3);
    }

    fn search(&mut self, depth: u32, mut alpha: i32, beta: i32) -> i32 {
        self.profiler.enter(self.fns.search);
        self.nodes += 1;
        let hash = self.hash;
        let slot = (hash as usize) & (TT_SIZE - 1);
        self.profiler.load(TT_REGION + slot as u64 * 16);
        let (tt_hash, tt_score, tt_depth) = self.tt[slot];
        let tt_hit = tt_hash == hash && tt_depth >= depth;
        self.profiler.branch(12, tt_hit);
        if tt_hit {
            self.profiler.exit();
            return tt_score;
        }
        if depth == 0 {
            let score = self.quiesce(alpha, beta);
            self.profiler.exit();
            return score;
        }
        let moves = self.ordered_moves(false);
        if moves.is_empty() {
            let side = self.board.side;
            let score = if self.board.in_check(side) { -MATE } else { 0 };
            self.profiler.exit();
            return score;
        }
        let mut best = -MATE * 2;
        for m in moves {
            self.make(m);
            let score = -self.search(depth - 1, -beta, -alpha);
            self.unmake(m);
            best = best.max(score);
            alpha = alpha.max(score);
            let cut = alpha >= beta;
            self.profiler.branch(13, cut);
            if cut {
                break;
            }
        }
        self.tt[slot] = (hash, best, depth);
        self.profiler.store(TT_REGION + slot as u64 * 16);
        self.profiler.exit();
        best
    }
}

/// Searches one position spec to its depth; returns (score, nodes).
pub fn analyze(spec: &PositionSpec, profiler: &mut Profiler) -> (i32, u64) {
    let fns = register(profiler);
    let board = Board::from_spec(spec);
    let mut engine = Engine {
        hash: board.hash(),
        board,
        profiler,
        fns,
        tt: vec![(0, 0, u32::MAX); TT_SIZE],
        nodes: 0,
    };
    // Fresh TT depth marker must not fake a hit: use depth 0 sentinel.
    for slot in engine.tt.iter_mut() {
        *slot = (u64::MAX, 0, 0);
    }
    let score = engine.search(spec.depth, -MATE * 2, MATE * 2);
    (score, engine.nodes)
}

/// The deepsjeng mini-benchmark.
#[derive(Debug)]
pub struct MiniDeepsjeng {
    workloads: Vec<Named<ChessWorkload>>,
}

impl MiniDeepsjeng {
    /// Builds the benchmark with its standard workload set.
    pub fn new(scale: Scale) -> Self {
        MiniDeepsjeng {
            workloads: standard_set(scale, chess::train, chess::refrate, chess::alberta_set),
        }
    }
}

impl Benchmark for MiniDeepsjeng {
    fn name(&self) -> &'static str {
        "531.deepsjeng_r"
    }

    fn short_name(&self) -> &'static str {
        "deepsjeng"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let mut scores = Vec::new();
        let mut nodes = 0;
        for (i, spec) in w.positions.iter().enumerate() {
            // A zero-ply search task is as meaningless as an illegal FEN:
            // reject it up front instead of "searching" it.
            if spec.depth == 0 {
                return Err(BenchError::InvalidInput {
                    benchmark: "531.deepsjeng_r",
                    reason: format!("position {i} has illegal search depth 0"),
                });
            }
            let (score, n) = analyze(spec, profiler);
            scores.push(score as u64);
            nodes += n;
        }
        Ok(RunOutput {
            checksum: fnv1a(scores),
            work: nodes,
        })
    }

    fn inject_malformed(&mut self, workload: &str, seed: u64) -> bool {
        self.workloads
            .iter_mut()
            .find(|n| n.name == workload)
            .map(|n| n.workload.corrupt(seed))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perft_matches_standard_counts() {
        // Standard chess perft; no castling/en passant is reachable at
        // these depths from the initial position, so the counts match
        // full chess.
        let mut b = Board::initial();
        assert_eq!(b.perft(1), 20);
        assert_eq!(b.perft(2), 400);
        assert_eq!(b.perft(3), 8902);
        assert_eq!(b.perft(4), 197_281);
    }

    /// A seeded random position: both kings plus up to 20 random pieces
    /// (pawns off the back ranks), either side to move. Dense random
    /// placement produces checks, pins and promotions far more often
    /// than play from the initial position does.
    fn random_board(seed: u64) -> Board {
        use piece::*;
        fn draw(state: &mut u64, bound: u64) -> u64 {
            *state = splitmix(*state);
            *state % bound
        }
        fn place(squares: &mut [i8; 128], state: &mut u64, p: i8) -> usize {
            loop {
                let sq = (draw(state, 8) * 16 + draw(state, 8)) as usize;
                if squares[sq] == 0 && !(p.abs() == PAWN && matches!(sq >> 4, 0 | 7)) {
                    squares[sq] = p;
                    return sq;
                }
            }
        }
        let mut state = seed;
        let mut squares = [0i8; 128];
        let white_king = place(&mut squares, &mut state, KING);
        let black_king = place(&mut squares, &mut state, -KING);
        for _ in 0..2 + draw(&mut state, 19) {
            let kind =
                [PAWN, PAWN, PAWN, KNIGHT, BISHOP, ROOK, QUEEN][draw(&mut state, 7) as usize];
            let colour = if draw(&mut state, 2) == 0 { 1 } else { -1 };
            place(&mut squares, &mut state, kind * colour);
        }
        Board {
            squares,
            side: if draw(&mut state, 2) == 0 { 1 } else { -1 },
            kings: [white_king as u8, black_king as u8],
        }
    }

    #[test]
    fn legal_moves_match_the_full_filter() {
        let (mut checks, mut pins, mut promotions) = (0, 0, 0);
        for seed in 0..1_500u64 {
            let mut board = if seed % 3 == 0 {
                Board::from_spec(&PositionSpec {
                    seed,
                    random_moves: (seed % 90) as u32,
                    depth: 1,
                })
            } else {
                random_board(seed)
            };
            let snapshot = board.clone();
            let fast = board.legal_moves();
            assert_eq!(
                board, snapshot,
                "seed {seed}: legal_moves mutated the board"
            );
            let naive = board.legal_moves_naive();
            assert_eq!(fast, naive, "seed {seed}: {snapshot:?}");
            let side = board.side;
            checks += board.in_check(side) as u32;
            pins += (board.pinned(side) != 0) as u32;
            promotions += fast.iter().any(|m| m.promotion) as u32;
        }
        assert!(checks >= 50, "only {checks} positions in check");
        assert!(pins >= 50, "only {pins} positions with a pin");
        assert!(
            promotions >= 50,
            "only {promotions} positions with a promotion"
        );
    }

    #[test]
    fn incremental_hash_tracks_every_search_node() {
        // `Engine::make`/`unmake` assert the incremental hash against a
        // full rescan in test builds, so every node of these searches is
        // checked, captures and promotions included.
        for seed in 0..12u64 {
            let spec = PositionSpec {
                seed,
                random_moves: 10 + (seed as u32 * 7) % 60,
                depth: 3,
            };
            let mut p = Profiler::default();
            let (_, nodes) = analyze(&spec, &mut p);
            assert!(nodes > 0);
        }
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let board = random_board(7);
        let mut engine = Engine {
            hash: board.hash(),
            board,
            profiler: &mut p,
            fns,
            tt: vec![(u64::MAX, 0, 0); TT_SIZE],
            nodes: 0,
        };
        engine.search(3, -MATE * 2, MATE * 2);
        assert_eq!(engine.hash, engine.board.hash());
    }

    #[test]
    fn make_unmake_round_trips() {
        let mut b = Board::initial();
        let snapshot = b.clone();
        for m in b.legal_moves() {
            b.make(m);
            b.unmake(m);
            assert_eq!(b, snapshot, "unmake failed for {m:?}");
        }
    }

    #[test]
    fn initial_position_is_not_check() {
        let b = Board::initial();
        assert!(!b.in_check(1));
        assert!(!b.in_check(-1));
    }

    #[test]
    fn scholars_mate_is_detected_as_winning_capture_line() {
        // A queen en prise must be captured by the search: material swing
        // visible at depth 2.
        let mut b = Board::initial();
        // Hang a black queen on a3 (0x20): the b1 knight captures it
        // outright and nothing defends the square.
        b.squares[0x20] = -piece::QUEEN;
        let spec = PositionSpec {
            seed: 0,
            random_moves: 0,
            depth: 2,
        };
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let mut engine = Engine {
            hash: b.hash(),
            board: b,
            profiler: &mut p,
            fns,
            tt: vec![(u64::MAX, 0, 0); TT_SIZE],
            nodes: 0,
        };
        // Statically, white is down a full queen...
        let static_eval = engine.evaluate();
        assert!(
            static_eval < -700,
            "static eval should show the deficit: {static_eval}"
        );
        // ...but the search finds Nxa3 and restores material equality.
        let score = engine.search(spec.depth, -MATE * 2, MATE * 2);
        assert!(
            score > -200,
            "search must recover the queen (≈0), got {score}"
        );
        let _ = p.finish();
    }

    #[test]
    fn from_spec_is_deterministic_and_legal() {
        let spec = PositionSpec {
            seed: 99,
            random_moves: 30,
            depth: 1,
        };
        let a = Board::from_spec(&spec);
        let b = Board::from_spec(&spec);
        assert_eq!(a, b);
        // Both kings alive.
        let kings = a
            .squares
            .iter()
            .filter(|&&p| p.abs() == piece::KING)
            .count();
        assert_eq!(kings, 2);
    }

    #[test]
    fn deeper_search_visits_more_nodes() {
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        let shallow = analyze(
            &PositionSpec {
                seed: 5,
                random_moves: 10,
                depth: 2,
            },
            &mut p1,
        );
        let deep = analyze(
            &PositionSpec {
                seed: 5,
                random_moves: 10,
                depth: 4,
            },
            &mut p2,
        );
        assert!(deep.1 > shallow.1 * 3, "{} vs {}", deep.1, shallow.1);
    }

    #[test]
    fn benchmark_runs_with_search_dominating_coverage() {
        let b = MiniDeepsjeng::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("train", &mut p).unwrap();
        assert!(out.work > 0);
        let profile = p.finish();
        let cov = profile.coverage_percent();
        let search_family = cov["deepsjeng::search"]
            + cov["deepsjeng::qsearch"]
            + cov["deepsjeng::gen_moves"]
            + cov["deepsjeng::evaluate"];
        assert!(search_family > 80.0, "{cov:?}");
    }

    #[test]
    fn determinism() {
        let b = MiniDeepsjeng::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("alberta.1", &mut p1).unwrap(),
            b.run("alberta.1", &mut p2).unwrap()
        );
        assert_eq!(p1.finish().totals, p2.finish().totals);
    }
}
