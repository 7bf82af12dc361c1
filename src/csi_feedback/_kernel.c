/* Compiled loops of the closed-loop codec, of its steady-state analysis, of
 * the AR trace filter and of the index-stream bit packing.
 *
 * Each loop repeats the arithmetic of its Python counterpart operation by
 * operation, in the same order, so its outputs are bit-identical to it:
 * encode_rows to EncoderState.encode_step, decode_rows to
 * DecoderState.decode_step, gain_fixed_point to the loop of
 * analysis.converged_prediction_state, mse_trajectory to the loop of
 * analysis.mse_recursion and ar_trace to scipy.signal.lfilter([1], [1, -a]).
 * pack_bits and unpack_bits give the bytes and codewords of the numpy bit
 * matrix in codec.pack_indices and codec.unpack_indices.
 * The encoder's settle loop and gain_fixed_point share one gain recursion,
 * propagate_pred_err and kalman_gain.  Bit-identity holds only without
 * floating-point contraction: build with -ffp-contract=off, since a fused
 * multiply-add rounds once where the Python code rounds twice.  _kernel.py
 * compiles and loads this file.
 *
 * Rows are independent streams.  Per-row arrays of length `order` (AR
 * coefficients, histories, per-lag error variances) are concatenated in row
 * order and hold the most recent value first.  Each loop keeps its histories
 * in mirrored rings of 2 * order doubles, where ring[i] == ring[i + order],
 * so the window ring[head .. head + order) is always contiguous and a push is
 * two stores.  `work` has room for two rings of the largest order.
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

/* sum_m a_m h_m in lag order, starting from 0.0 */
static double predict(const double *a, const double *window, int64_t order)
{
    double total = 0.0;
    for (int64_t m = 0; m < order; m++)
        total += a[m] * window[m];
    return total;
}

/* Codec gain E / (E + sigma_xi^2) for prediction-error variance E; 1 without
 * noise.  As analysis.kalman_gain. */
static double kalman_gain(double pred_err_var, double noise_var)
{
    return noise_var == 0.0 ? 1.0 : pred_err_var / (pred_err_var + noise_var);
}

/* The prediction-error variance after a step of the recursion, as
 * analysis.propagate_pred_err: sigma_psi^2 + sum_m a_m^2 (f_m + sigma_Q^2),
 * summed in lag order over the per-lag filtered variances f, most recent
 * first, into which the step has pushed its filtered variance. */
static double propagate_pred_err(const double *a, int64_t order, double innovation_var,
                                 double sigma_q_sq, const double *f)
{
    double total = innovation_var;
    for (int64_t m = 0; m < order; m++)
        total = total + a[m] * a[m] * (f[m] + sigma_q_sq);
    return total;
}

/* Encode one row.  Returns n, or the sample whose quantizer input is not
 * finite; the state then stands as the samples before it left it. */
static int64_t encode_row(int64_t n, const double *y, int64_t order, const double *a,
                          const double *p, double *history, double *filtered, double *s,
                          int64_t *indices, double *recon, double *work)
{
    const double step = p[P_STEP], half = p[P_HALF];
    double *h = work, *f = work + 2 * order;
    int64_t hh = 0, fh = 0;
    double pred_err_var = s[S_PRED_ERR_VAR], gain = s[S_GAIN];
    int settled = s[S_SETTLED] != 0.0;
    int64_t k;

    ring_load(h, history, order);
    ring_load(f, filtered, order);

    for (k = 0; k < n; k++) {
        double prediction = predict(a, h + hh, order);
        double value = gain * (y[k] - prediction);
        if (!isfinite(value))
            break;
        double level = floor(value / step);
        if (level < -half)
            level = -half;
        else if (level > half - 1.0)
            level = half - 1.0;
        if (indices)
            indices[k] = (int64_t)(level + half);
        recon[k] = prediction + (level + 0.5) * step;
        hh = ring_push(h, hh, order, recon[k]);
        if (settled)
            continue;

        /* The recursion has settled when a step leaves the variance and the
         * per-lag ring exactly unchanged: the ring after the push equals the
         * ring before it iff every entry equals the pushed value. */
        double pushed = (1.0 - gain) * pred_err_var;
        int same = 1;
        for (int64_t m = 0; m < order; m++)
            same &= f[fh + m] == pushed;
        fh = ring_push(f, fh, order, pushed);
        double total = propagate_pred_err(a, order, p[P_INNOVATION_VAR], p[P_SIGMA_Q_SQ], f + fh);
        settled = total == pred_err_var && same;
        pred_err_var = total;
        gain = kalman_gain(pred_err_var, p[P_NOISE_VAR]);
    }
    ring_store(history, h, hh, order);
    ring_store(filtered, f, fh, order);
    s[S_PRED_ERR_VAR] = pred_err_var;
    s[S_GAIN] = gain;
    s[S_SETTLED] = settled;
    return k;
}

/* Encode n samples of every row, row after row.  `indices` may be NULL.
 * Returns n_rows * n, or row * n + k for the first sample k whose quantizer
 * input is not finite; later rows are then left untouched. */
int64_t encode_rows(int64_t n_rows, int64_t n, const double *const *observations,
                    const int64_t *orders, const double *coeffs, const double *params,
                    double *history, double *filtered, double *state, int64_t *indices,
                    double *recon, double *work)
{
    int64_t offset = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t done = encode_row(n, observations[r], orders[r], coeffs + offset,
                                  params + r * N_PARAMS, history + offset, filtered + offset,
                                  state + r * N_STATE, indices ? indices + r * n : 0,
                                  recon + r * n, work);
        if (done < n)
            return r * n + done;
        offset += orders[r];
    }
    return n_rows * n;
}

/* The fixed point of the gain recursion, as analysis.converged_prediction_state:
 * from per-lag filtered variances and prediction-error variance sigma_x^2,
 * step propagate_pred_err until the gain moves by less than `tol`.  Writes
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
        head = ring_push(work, head, order, (1.0 - gain) * pred_var);
        pred_var = propagate_pred_err(a, order, innovation_var, sigma_q_sq, work + head);
        double new_gain = kalman_gain(pred_var, noise_var);
        int settled = fabs(new_gain - gain) < tol;
        gain = new_gain;
        if (settled) {
            out[0] = gain;
            out[1] = pred_var;
            return k;
        }
    }
    return 0;
}

/* The long-term MSE recursion, as analysis.mse_recursion:
 * v_k = shrink * sum_m c_m v_{k-1-m} + constant, summed in lag order from 0.0,
 * with v_j = v_0 for j < 0.  `v` holds order - 1 copies of v_0 and then the
 * trajectory v_0, v_1, ..., of which `done` values are filled.  Fills on
 * until v_k is within rtol * max(|v_{k-1}|, min_scale) of v_{k-1} or
 * `capacity` values are filled.  A NaN v_{k-1} never passes: Python's
 * max(NaN, min_scale) is NaN, where fmax would give min_scale.  Returns the
 * trajectory length, negated unless its last value passed. */
int64_t mse_trajectory(int64_t order, const double *c, double shrink, double constant,
                       double rtol, double min_scale, double *v, int64_t done, int64_t capacity)
{
    double *t = v + order - 1;
    for (int64_t k = done; k < capacity; k++) {
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
    return -capacity;
}

/* Decode n indices of every row, row after row, with quantizer steps `step`
 * and 2^(bits-1) in `half`.  Returns n_rows * n, or row * n + k for the
 * first index k outside [0, 2 * half); later rows are then left untouched. */
int64_t decode_rows(int64_t n_rows, int64_t n, const int64_t *const *indices,
                    const int64_t *orders, const double *coeffs, const double *step,
                    const double *half, double *history, double *recon, double *work)
{
    int64_t offset = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t order = orders[r], *index = indices[r];
        const int64_t levels = 2 * (int64_t)half[r];
        const double *a = coeffs + offset;
        double *h = work, *out = recon + r * n;
        int64_t hh = 0, k;
        ring_load(h, history + offset, order);
        for (k = 0; k < n && index[k] >= 0 && index[k] < levels; k++) {
            out[k] = predict(a, h + hh, order) + ((double)index[k] - half[r] + 0.5) * step[r];
            hh = ring_push(h, hh, order, out[k]);
        }
        ring_store(history + offset, h, hh, order);
        if (k < n)
            return r * n + k;
        offset += order;
    }
    return n_rows * n;
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
 * ceil(n * bits / 8) bytes of `out`, the last one zero-padded.  Returns n,
 * or the first k whose values[k] lies outside [0, 2^bits); `out` then holds
 * the bytes before it.  At most 7 bits wait in `acc` between codewords, so
 * it never holds more than 60. */
int64_t pack_bits(int64_t n, int64_t bits, const int64_t *values, uint8_t *out)
{
    uint64_t acc = 0;
    int64_t held = 0, k;
    for (k = 0; k < n && values[k] >= 0 && values[k] >> bits == 0; k++) {
        acc = acc << bits | (uint64_t)values[k];
        for (held += bits; held >= 8; held -= 8)
            *out++ = (uint8_t)(acc >> (held - 8));
    }
    if (held > 0)
        *out = (uint8_t)(acc << (8 - held));
    return k;
}

/* Unpack n codewords of `bits` bits (1..53), packed as pack_bits packs them,
 * from the first ceil(n * bits / 8) bytes of `data` into `out`. */
void unpack_bits(int64_t n, int64_t bits, const uint8_t *data, int64_t *out)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    uint64_t acc = 0;
    int64_t held = 0;
    for (int64_t k = 0; k < n; k++) {
        for (; held < bits; held += 8)
            acc = acc << 8 | *data++;
        held -= bits;
        out[k] = (int64_t)(acc >> held & mask);
    }
}
