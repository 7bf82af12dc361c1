/* Compiled loops of the closed-loop codec, of its steady-state analysis, of
 * the AR trace filter and of the index-stream bit packing.
 *
 * Each loop repeats the arithmetic of its Python counterpart operation by
 * operation, in the same order, so its outputs are bit-identical to it:
 * encode_rows to EncoderState.encode_step, decode_row to
 * DecoderState.decode_step, gain_fixed_point to the loop of
 * analysis.converged_prediction_state, mse_trajectory to the loop of
 * analysis.mse_recursion and ar_trace to the loop of channel._ar_filter,
 * which runs lfilter([1], [1, -a])'s operation order.
 * pack_bits and unpack_bits give the bytes and codewords of the numpy bit
 * matrix in codec.pack_indices and codec.unpack_indices.  decode_row and
 * pack_bits trust their codewords: codec._codewords cuts every index stream
 * at its first entry outside [0, 2^bits) before either loop sees it.
 * The encoder's settle branch and gain_fixed_point call one step of the gain
 * recursion, gain_step, as their Python twins call analysis.gain_step.
 * Bit-identity holds only without floating-point contraction: build with
 * -ffp-contract=off, since a fused multiply-add rounds once where the Python
 * code rounds twice.  _kernel.py compiles and loads this file, adding
 * -msse4.1 where the CPU has SSE4.1: floor in encoder_step is then one
 * roundsd instead of the SSE2 baseline's emulation, and exact either way.
 *
 * Rows are independent streams.  Per-row arrays of length `order` (AR
 * coefficients, histories, per-lag error variances) are concatenated in row
 * order and hold the most recent value first.  Each loop keeps its histories
 * in mirrored rings of 2 * order doubles, where ring[i] == ring[i + order],
 * so the window ring[head .. head + order) is always contiguous and a push is
 * two stores.
 *
 * Each encoder step waits on the one before it: the prediction reads the last
 * reconstruction.  encode_rows therefore steps BLOCK rows together, sample by
 * sample, so the CPU overlaps their chains; each row keeps its own operation
 * order, so its bits do not depend on the rows beside it.  Its `work` holds
 * two rings for every row of a block, encode_rows_work doubles.  decode_row
 * decodes one row through one ring.
 *
 * Encoder and decoder form their predictions through one helper, predict,
 * which takes the newest value as its own argument and the older ones from
 * the ring.  The decoder keeps its newest value in a local from one sample to
 * the next, so a sample does not wait on storing it into the ring and loading
 * it back.  The sum keeps the Python sum's operations and order but not its
 * leading 0.0, one add less on the chain from sample to sample.  x + y is
 * -0.0 in round-to-nearest only when x and y both are (IEEE 754-2008 6.3),
 * so the Python sum, from +0.0, and the reconstruction built on it are never
 * -0.0, while the kernel's differ from them at most in the sign of a zero.
 * Its reconstruction r thus has r + 0.0 equal to the Python one: both
 * callers store r + 0.0 into `recon` and the ring; decode_row keeps r.
 */

#include <math.h>
#include <stdint.h>

/* per-row encoder parameters (stride N_PARAMS) and state (stride N_STATE) */
enum { P_STEP, P_HALF, P_INNOVATION_VAR, P_NOISE_VAR, P_SIGMA_Q_SQ, N_PARAMS };
enum { S_PRED_ERR_VAR, S_GAIN, S_SETTLED, N_STATE };

static void ring_load(double *ring, const double *values, int64_t order)
{
    for (int64_t m = 0; m < order; m++)
        ring[m] = ring[m + order] = values[m];
}

static int64_t ring_push(double *ring, int64_t head, int64_t order, double value)
{
    head = (head == 0 ? order : head) - 1;
    ring[head] = ring[head + order] = value;
    return head;
}

static void ring_store(double *values, const double *ring, int64_t head, int64_t order)
{
    for (int64_t m = 0; m < order; m++)
        values[m] = ring[head + m];
}

/* sum_m a_m h_m in lag order, not from 0.0, so that a zero sum may be -0.0,
 * with h_0 passed as `newest` and the older ones read from window[1 .. order) */
static double predict(const double *a, double newest, const double *window, int64_t order)
{
    double total = a[0] * newest;
    for (int64_t m = 1; m < order; m++)
        total += a[m] * window[m];
    return total;
}

/* Codec gain E / (E + sigma_xi^2) for prediction-error variance E; 1 without
 * noise.  As analysis.kalman_gain. */
static double kalman_gain(double pred_err_var, double noise_var)
{
    return noise_var == 0.0 ? 1.0 : pred_err_var / (pred_err_var + noise_var);
}

/* One step of the gain recursion, as analysis.gain_step: push the filtered
 * variance (1 - gain) E into the per-lag ring f at *head, set E to
 * sigma_psi^2 + sum_m a_m^2 (f_m + sigma_Q^2), summed in lag order, most
 * recent first, and the gain to its kalman_gain.  Returns whether the step
 * left E and the ring exactly unchanged: the ring after the push equals the
 * ring before it iff every entry equals the pushed value.  `inline`: gcc -O2
 * does not inline a plain static step with two callers, and the call makes
 * each gain_fixed_point step about a quarter slower. */
static inline int gain_step(const double *a, int64_t order, double innovation_var,
                            double noise_var, double sigma_q_sq, double *f, int64_t *head,
                            double *pred_err_var, double *gain)
{
    double pushed = (1.0 - *gain) * *pred_err_var;
    int same = 1;
    for (int64_t m = 0; m < order; m++)
        same &= f[*head + m] == pushed;
    *head = ring_push(f, *head, order, pushed);
    double total = innovation_var;
    for (int64_t m = 0; m < order; m++)
        total = total + a[m] * a[m] * (f[*head + m] + sigma_q_sq);
    int settled = total == *pred_err_var && same;
    *pred_err_var = total;
    *gain = kalman_gain(total, noise_var);
    return settled;
}

/* One row of encode_rows: its inputs and outputs there, and the encoder state
 * it carries from sample to sample, with its histories in mirrored rings. */
struct encoder {
    const double *y, *a, *p;
    double *history, *filtered, *s, *recon;
    int64_t *indices, order;
    double *h, *f, pred_err_var, gain;
    int64_t hh, fh;
    int settled;
};

/* Load the row's saved state, with its rings in the 4 * order doubles of `work`. */
static void encoder_load(struct encoder *e, double *work)
{
    e->h = work;
    e->f = work + 2 * e->order;
    e->hh = e->fh = 0;
    ring_load(e->h, e->history, e->order);
    ring_load(e->f, e->filtered, e->order);
    e->pred_err_var = e->s[S_PRED_ERR_VAR];
    e->gain = e->s[S_GAIN];
    e->settled = e->s[S_SETTLED] != 0.0;
}

/* Write the row's state back where encoder_load read it. */
static void encoder_save(const struct encoder *e)
{
    ring_store(e->history, e->h, e->hh, e->order);
    ring_store(e->filtered, e->f, e->fh, e->order);
    e->s[S_PRED_ERR_VAR] = e->pred_err_var;
    e->s[S_GAIN] = e->gain;
    e->s[S_SETTLED] = e->settled;
}

/* Encode sample k, as EncoderState.encode_step.  Returns 0, with the state
 * unchanged, if its quantizer input is not finite, and 1 otherwise. */
static int encoder_step(struct encoder *e, int64_t k)
{
    const double *a = e->a, *p = e->p;
    const int64_t order = e->order;
    const double step = p[P_STEP], half = p[P_HALF], gain = e->gain;
    const double *window = e->h + e->hh;
    double prediction = predict(a, window[0], window, order);
    double value = gain * (e->y[k] - prediction);
    if (!isfinite(value))
        return 0;
    double level = floor(value / step);
    if (level < -half)
        level = -half;
    else if (level > half - 1.0)
        level = half - 1.0;
    if (e->indices)
        e->indices[k] = (int64_t)(level + half);
    e->recon[k] = prediction + (level + 0.5) * step + 0.0;
    e->hh = ring_push(e->h, e->hh, order, e->recon[k]);
    if (!e->settled)
        e->settled = gain_step(a, order, p[P_INNOVATION_VAR], p[P_NOISE_VAR], p[P_SIGMA_Q_SQ],
                               e->f, &e->fh, &e->pred_err_var, &e->gain);
    return 1;
}

/* Step m rows through n samples, sample by sample and within a sample row by
 * row, so the CPU overlaps their independent chains of dependent steps.
 * Returns 1, or 0 as soon as some row's step fails. */
static int encode_block(struct encoder *e, int64_t m, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        for (int64_t i = 0; i < m; i++)
            if (!encoder_step(e + i, k))
                return 0;
    return 1;
}

/* Rows encoded together by encode_rows: enough independent steps in flight to
 * hide the latency of one, few enough for the CPU's reorder window. */
enum { BLOCK = 8 };

/* Doubles of `work` that encode_rows needs for n_rows rows of order at most
 * max_order: two rings for every row of a block. */
int64_t encode_rows_work(int64_t n_rows, int64_t max_order)
{
    return (n_rows < BLOCK ? n_rows : BLOCK) * 4 * max_order;
}

/* Encode n samples of every row, BLOCK rows at a time.  `indices` may be NULL.
 * Returns 1, or 0 at the first quantizer input that is not finite, with the
 * outputs and saved states partly written: codec.encode_batch then replays
 * the batch through EncoderState.encode_step, which names the failing sample.
 * `work` has room for encode_rows_work(n_rows, max order) doubles. */
int64_t encode_rows(int64_t n_rows, int64_t n, const double *const *observations,
                    const int64_t *orders, const double *coeffs, const double *params,
                    double *history, double *filtered, double *state, int64_t *indices,
                    double *recon, double *work)
{
    struct encoder block[BLOCK];
    int64_t offset = 0;
    for (int64_t first = 0; first < n_rows; first += BLOCK) {
        const int64_t m = n_rows - first < BLOCK ? n_rows - first : BLOCK;
        double *ring = work;
        for (int64_t i = 0; i < m; i++) {
            const int64_t r = first + i;
            struct encoder *e = block + i;
            e->y = observations[r];
            e->order = orders[r];
            e->a = coeffs + offset;
            e->p = params + r * N_PARAMS;
            e->history = history + offset;
            e->filtered = filtered + offset;
            e->s = state + r * N_STATE;
            e->indices = indices ? indices + r * n : 0;
            e->recon = recon + r * n;
            encoder_load(e, ring);
            offset += e->order;
            ring += 4 * e->order;
        }
        if (!encode_block(block, m, n))
            return 0;
        for (int64_t i = 0; i < m; i++)
            encoder_save(block + i);
    }
    return 1;
}

/* The fixed point of the gain recursion, as analysis.converged_prediction_state:
 * from per-lag filtered variances and prediction-error variance sigma_x^2,
 * step gain_step until the gain moves by less than `tol`.  Writes
 * (gain, prediction-error variance) to `out` and returns the steps taken, or
 * returns 0 if the gain has not settled after max_iter steps.  `work` has
 * room for one ring, 2 * order doubles. */
int64_t gain_fixed_point(int64_t order, const double *a, double innovation_var, double noise_var,
                         double sigma_q_sq, double sigma_x_sq, double tol, int64_t max_iter,
                         double *out, double *work)
{
    int64_t head = 0;
    double pred_var = sigma_x_sq, gain = kalman_gain(pred_var, noise_var);
    for (int64_t m = 0; m < 2 * order; m++)
        work[m] = sigma_x_sq;
    for (int64_t k = 1; k <= max_iter; k++) {
        double previous = gain;
        gain_step(a, order, innovation_var, noise_var, sigma_q_sq, work, &head, &pred_var, &gain);
        if (fabs(gain - previous) < tol) {
            out[0] = gain;
            out[1] = pred_var;
            return k;
        }
    }
    return 0;
}

/* The long-term MSE recursion, as analysis.mse_recursion:
 * v_k = shrink * sum_m c_m v_{k-1-m} + constant, summed in lag order from 0.0,
 * with v_j = v_0 for j < 0.  `v` holds order - 1 copies of v_0, then v_0 and
 * room for the rest of `capacity` trajectory values v_0, v_1, ....  Fills it
 * until v_k is within rtol * max(|v_{k-1}|, min_scale) of v_{k-1}.  A NaN
 * v_{k-1} never passes: Python's max(NaN, min_scale) is NaN, where fmax
 * would give min_scale.  Returns the trajectory length, or 0 if `capacity`
 * values are filled and the last did not pass. */
int64_t mse_trajectory(int64_t order, const double *c, double shrink, double constant,
                       double rtol, double min_scale, double *v, int64_t capacity)
{
    double *t = v + order - 1;
    for (int64_t k = 1; k < capacity; k++) {
        double total = 0.0;
        for (int64_t m = 0; m < order; m++)
            total += c[m] * t[k - 1 - m];
        t[k] = shrink * total + constant;
        double previous = t[k - 1], scale = fabs(previous);
        if (min_scale > scale)
            scale = min_scale;
        if (fabs(t[k] - previous) < rtol * scale)
            return k + 1;
    }
    return 0;
}

/* Decode n indices of one row, as DecoderState.decode_step, with quantizer
 * step `step` and 2^(bits-1) in `half`, from `history` and back into it.
 * Every index must lie in [0, 2 * half).  `work` has room for one ring,
 * 2 * order doubles. */
void decode_row(int64_t n, int64_t order, const double *a, double step, double half,
                const int64_t *indices, double *history, double *recon, double *work)
{
    int64_t head = 0;
    ring_load(work, history, order);
    double newest = work[0];
    for (int64_t k = 0; k < n; k++) {
        newest = predict(a, newest, work + head, order) + ((double)indices[k] - half + 0.5) * step;
        recon[k] = newest + 0.0;
        head = ring_push(work, head, order, recon[k]);
    }
    ring_store(history, work, head, order);
}

/* x_k = sum_m a_m x_{k-m} + psi_k from a zero state, in the operation order of
 * lfilter's direct form II transposed with numerator [1] and denominator
 * [1, -a_1, ..., -a_L]: y = z_0 + 1 * x, then z_m = z_{m+1} + 0 * x - d_{m+1} * y
 * for m < L - 1 and z_{L-1} = 0 * x - d_L * y, with d = -a.  `z` has room for
 * `order` doubles. */
void ar_trace(int64_t n, int64_t order, const double *a, const double *psi, double *x,
              double *z)
{
    for (int64_t m = 0; m < order; m++)
        z[m] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double in = psi[k], out = z[0] + 1.0 * in;
        for (int64_t m = 0; m + 1 < order; m++)
            z[m] = z[m + 1] + 0.0 * in - (-a[m]) * out;
        z[order - 1] = 0.0 * in - (-a[order - 1]) * out;
        x[k] = out;
    }
}

/* Pack n codewords of `bits` bits (1..53), most significant bit first, into
 * ceil(n * bits / 8) bytes of `out`, the last one zero-padded.  Every value
 * must lie in [0, 2^bits).  Up to 32 bits they go out in 32-bit big-endian
 * words, leaving at most 31 bits in `acc`, wider ones in bytes, leaving at
 * most 7, so `acc` never holds more than 63; then the whole bytes left. */
void pack_bits(int64_t n, int64_t bits, const int64_t *values, uint8_t *out)
{
    uint64_t acc = 0;
    int64_t held = 0, k = 0;
    for (; bits <= 32 && k < n; k++) {
        acc = acc << bits | (uint64_t)values[k];
        if ((held += bits) >= 32) {
            const uint32_t word = (uint32_t)(acc >> (held -= 32));
            out[0] = (uint8_t)(word >> 24);
            out[1] = (uint8_t)(word >> 16);
            out[2] = (uint8_t)(word >> 8);
            out[3] = (uint8_t)word;
            out += 4;
        }
    }
    for (; k < n; k++) {
        acc = acc << bits | (uint64_t)values[k];
        for (held += bits; held >= 8; held -= 8)
            *out++ = (uint8_t)(acc >> (held - 8));
    }
    for (; held >= 8; held -= 8)
        *out++ = (uint8_t)(acc >> (held - 8));
    if (held > 0)
        *out = (uint8_t)(acc << (8 - held));
}

/* Unpack n codewords of `bits` bits (1..53), packed as pack_bits packs them,
 * from the first ceil(n * bits / 8) bytes of `data` into `out`.  Up to 32
 * bits, the codewords that end within the whole 32-bit words of those bytes
 * are read a big-endian word at a time, the rest a byte at a time. */
void unpack_bits(int64_t n, int64_t bits, const uint8_t *data, int64_t *out)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    const int64_t in_words = bits <= 32 ? (n * bits + 7) / 32 * 32 / bits : 0;
    uint64_t acc = 0;
    int64_t held = 0, k = 0;
    for (; k < n && k < in_words; k++) {
        if (held < bits) {
            acc = acc << 32 | ((uint32_t)data[0] << 24 | data[1] << 16 | data[2] << 8 | data[3]);
            data += 4;
            held += 32;
        }
        held -= bits;
        out[k] = (int64_t)(acc >> held & mask);
    }
    for (; k < n; k++) {
        for (; held < bits; held += 8)
            acc = acc << 8 | *data++;
        held -= bits;
        out[k] = (int64_t)(acc >> held & mask);
    }
}
