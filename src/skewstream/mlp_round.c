/* The rounds of an MLP bank (see `learners.MlpBank`): one round, or a
 * stretch of a `learners.RowSchedule`'s rounds in one C call.
 *
 * A round gives each bank row one forward pass and one gradient step. It
 * makes the calls a round of numpy calls made, in the same order on the same
 * buffers: the three batched products run numpy's own float64 `matmul` loop
 * and the two exponentials numpy's own float64 `exp` loop, both read from
 * numpy's ufunc objects and handed over in the bank, with the shapes and
 * strides numpy passes them. Every other step is an IEEE operation on one or
 * two doubles, and is built with -ffp-contract=off, so no multiply and add
 * are fused: each element gets the operation numpy's elementwise loop gives
 * it, with the same rounding.
 *
 * The hidden layer is stored negated (see `learners`): the bank's flat
 * parameter buffer holds neg_W1 (rows, h, d), neg_b1 (rows, h), W2 (rows, 2,
 * h) and b2 (rows, 2) back to back, and its gradient buffer their gradients
 * in the same layout; the output error dz2 is the gradient of b2 and the
 * negated hidden error -dz1 that of neg_b1.
 */
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's inner loop of a ufunc or gufunc */
typedef void (*loop_fn)(char **args, const intptr_t *dims, const intptr_t *steps,
                        void *data);

/* a bank, as `learners.MlpBank` lays it out; every array is C-contiguous */
typedef struct {
    loop_fn exp, matmul;
    void *exp_data, *matmul_data;
    intptr_t rows, d, h, size; /* size: of the parameter buffer */
    double *params, *grads;
    /* work buffers: the inputs of a round (rows, d), the hidden activations
     * (rows, h), the output pre-activations and their exponentials (rows, 2)
     * and the backpropagated hidden error (rows, h) */
    double *x, *a1, *z2, *e, *da1;
} bank_t;

/* the floating-point exceptions numpy warns about, as returned bits */
enum { OVERFLOW = 1, INVALID = 2, DIVIDE = 4, OTHER_SHIFT = 4 };
#define WATCHED (FE_OVERFLOW | FE_INVALID | FE_DIVBYZERO)

static int raised(void)
{
    int f = fetestexcept(WATCHED);
    return (f & FE_OVERFLOW ? OVERFLOW : 0) | (f & FE_INVALID ? INVALID : 0) |
           (f & FE_DIVBYZERO ? DIVIDE : 0);
}

/* out = exp(in) over n contiguous doubles, through numpy's loop; the
 * exceptions first raised here are noted in *exp_flags */
static void exp_(const bank_t *b, double *in, double *out, intptr_t n, int *exp_flags)
{
    char *args[2] = {(char *)in, (char *)out};
    intptr_t steps[2] = {sizeof(double), sizeof(double)};
    int before = raised();
    b->exp(args, &n, steps, b->exp_data);
    *exp_flags |= raised() & ~before;
}

/* out[r] = A[r] @ v[r] for each row r, through numpy's matmul loop: A is
 * (rows, m, n) with strides a_r, a_m, a_n in bytes, v is (rows, n, 1) and
 * out (rows, m, 1), both C-contiguous. numpy passes a stride of 0 for a core
 * dimension of size 1, as the two columns' last axes are. */
static void matvec(const bank_t *b, const double *A, intptr_t a_r, intptr_t a_m,
                   intptr_t a_n, const double *v, double *out, intptr_t m, intptr_t n)
{
    const intptr_t s = sizeof(double);
    char *args[3] = {(char *)A, (char *)v, (char *)out};
    intptr_t dims[4] = {b->rows, m, n, 1};
    intptr_t steps[9] = {a_r,   n * s, m * s,            /* outer: by row */
                         m == 1 ? 0 : a_m, n == 1 ? 0 : a_n, /* A: m, n */
                         n == 1 ? 0 : s,   0,             /* v: n, 1 */
                         m == 1 ? 0 : s,   0};            /* out: m, 1 */
    b->matmul(args, dims, steps, b->matmul_data);
}

/* numpy's float64 maximum, which propagates a NaN */
static double maximum(double a, double b)
{
    return (a >= b || isnan(a)) ? a : b;
}

/* One round: row r takes its pass of code[r], on the input, one-hot target
 * and step size (both class columns) at that code in the by-code tables;
 * then score[r] is its P(+1). With no targets, only the forward pass on the
 * inputs runs. */
static void one_round(const bank_t *b, const intptr_t *code, const double *inputs,
                      const double *targets, const double *sizes, double *score,
                      int *exp_flags)
{
    const intptr_t rows = b->rows, d = b->d, h = b->h, s = sizeof(double);
    const intptr_t nh = rows * h;
    double *neg_W1 = b->params, *neg_b1 = neg_W1 + nh * d, *W2 = neg_b1 + nh,
           *b2 = W2 + 2 * nh;
    double *grad_neg_W1 = b->grads, *neg_dz1 = grad_neg_W1 + nh * d,
           *grad_W2 = neg_dz1 + nh, *dz2 = grad_W2 + 2 * nh;
    double *x = b->x, *a1 = b->a1, *z2 = b->z2, *e = b->e, *da1 = b->da1;
    intptr_t r, i, k;

    for (r = 0; r < rows; r++)
        memcpy(x + r * d, inputs + code[r] * d, d * s);
    /* -z1, from the negated hidden layer, in a1; then the sigmoid
     * 1.0 / (1.0 + exp(-z1)) step by step */
    matvec(b, neg_W1, h * d * s, d * s, s, x, a1, h, d);
    for (i = 0; i < nh; i++)
        a1[i] = a1[i] + neg_b1[i];
    exp_(b, a1, a1, nh, exp_flags);
    for (i = 0; i < nh; i++)
        a1[i] = a1[i] + 1.0;
    for (i = 0; i < nh; i++)
        a1[i] = 1.0 / a1[i];
    /* the softmax of z2, less its max, in dz2 */
    matvec(b, W2, 2 * h * s, h * s, s, a1, z2, 2, h);
    for (i = 0; i < 2 * rows; i++)
        z2[i] = z2[i] + b2[i];
    for (r = 0; r < rows; r++) {
        double top = maximum(z2[2 * r], z2[2 * r + 1]);
        z2[2 * r] = z2[2 * r] - top;
        z2[2 * r + 1] = z2[2 * r + 1] - top;
    }
    exp_(b, z2, e, 2 * rows, exp_flags);
    for (r = 0; r < rows; r++) {
        double sum = e[2 * r] + e[2 * r + 1];
        dz2[2 * r] = e[2 * r] / sum;
        dz2[2 * r + 1] = e[2 * r + 1] / sum;
    }
    if (!targets)
        return;
    for (r = 0; r < rows; r++)
        score[r] = dz2[2 * r];
    /* dz2 = (probs - T) times the step sizes */
    for (r = 0; r < rows; r++) {
        const double *t = targets + 2 * code[r], *size = sizes + 2 * code[r];
        dz2[2 * r] = (dz2[2 * r] - t[0]) * size[0];
        dz2[2 * r + 1] = (dz2[2 * r + 1] - t[1]) * size[1];
    }
    /* da1 = W2^T dz2, through the transposed view of W2 */
    matvec(b, W2, 2 * h * s, s, h * s, dz2, da1, h, 2);
    for (r = 0; r < rows; r++)
        for (k = 0; k < 2; k++)
            for (i = 0; i < h; i++)
                grad_W2[(2 * r + k) * h + i] = dz2[2 * r + k] * a1[r * h + i];
    /* -dz1 = da1 * a1 * (a1 - 1), the gradient of the negated layer */
    for (i = 0; i < nh; i++)
        neg_dz1[i] = (da1[i] * a1[i]) * (a1[i] - 1.0);
    for (r = 0; r < rows; r++)
        for (i = r * h; i < (r + 1) * h; i++)
            for (k = 0; k < d; k++)
                grad_neg_W1[i * d + k] = neg_dz1[i] * x[r * d + k];
    /* every gradient is of the weights before the step: one update */
    for (i = 0; i < b->size; i++)
        b->params[i] = b->params[i] - b->grads[i];
}

/* One round, as `learners.MlpBank.kernel` makes it: row r on the input,
 * target and step size at code[r]; with no targets, only the forward pass.
 * The return value holds the exceptions the round raised (OVERFLOW,
 * INVALID, DIVIDE), those first raised in an exponential in the low bits
 * and the rest shifted up by OTHER_SHIFT. */
int mlp_round(const bank_t *b, const intptr_t *code, const double *inputs,
              const double *targets, const double *sizes, double *score)
{
    int exp_flags = 0;
    feclearexcept(WATCHED);
    one_round(b, code, inputs, targets, sizes, score, &exp_flags);
    return exp_flags | ((raised() & ~exp_flags) << OTHER_SHIFT);
}

/* the per-step tables and the rows' cursors of a `learners.RowSchedule`;
 * step t is in slot t % slots of each table, every array is C-contiguous */
typedef struct {
    intptr_t slots, round; /* round: the rounds run so far */
    const intptr_t *ks;    /* (rows, slots): each row's Poisson count */
    /* by code, 2 * slot plus 1 where the row trains: the input, the one-hot
     * target and the step size (both class columns); code 2 * slots is
     * idle, a zero input and target and the step size 0 */
    const double *inputs, *targets, *sizes;
    double *hist;          /* (slots, rows): P(+1) at each step's first pass */
    /* by row: its step, the passes it has taken there, the steps it has
     * predicted, and the first step whose first pass is scored */
    intptr_t *at, *done, *pred, *unscored;
    intptr_t *code;        /* (rows,): work, a round's codes */
    double *score;         /* (rows,): work, a round's P(+1) */
} schedule_t;

/* Run rounds of schedule s on bank b: up to n, stopping before a round once
 * every row is at step `stop` or past it. In a round each row at a planned
 * step (before `planned`) takes its next pass there, max(1, k) of them in
 * all, of step size lr where k > 0 and 0 where k is 0; a row with no
 * planned step left takes the idle code. A row's first pass at a step is its
 * prediction, and its P(+1) goes to the history where the step is scored.
 * Returns the exceptions raised, as `mlp_round` does. */
int mlp_run(const bank_t *b, schedule_t *s, intptr_t n, intptr_t stop,
            intptr_t planned)
{
    const intptr_t rows = b->rows, slots = s->slots;
    int exp_flags = 0;
    intptr_t j, r;
    feclearexcept(WATCHED);
    for (j = 0; j < n; j++) {
        for (r = 0; r < rows && s->at[r] >= stop; r++)
            ;
        if (r == rows)
            break;
        for (r = 0; r < rows; r++) {
            const intptr_t slot = s->at[r] % slots;
            s->code[r] = s->at[r] < planned
                             ? 2 * slot + (s->ks[r * slots + slot] > 0)
                             : 2 * slots;
        }
        one_round(b, s->code, s->inputs, s->targets, s->sizes, s->score, &exp_flags);
        for (r = 0; r < rows; r++) {
            const intptr_t t = s->at[r], slot = t % slots;
            intptr_t k;
            if (t >= planned)
                continue;
            k = s->ks[r * slots + slot];
            if (s->done[r] == 0) {
                s->pred[r] = t + 1;
                if (t >= s->unscored[r])
                    s->hist[slot * rows + r] = s->score[r];
            }
            if (++s->done[r] >= (k > 1 ? k : 1)) {
                s->at[r] = t + 1;
                s->done[r] = 0;
            }
        }
        s->round++;
    }
    return exp_flags | ((raised() & ~exp_flags) << OTHER_SHIFT);
}
